import argparse
import builtins
import hashlib
import io
import itertools
import json
import os
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import ALGEBRA_ZOO_GENERATORS, E12, CliRunner, matrix_to_json
from qgelfand import cli, harness, spectral
from qgelfand.algebra import DecompositionError, FdAlgebra
from qgelfand.cli import canonical_json, main
from qgelfand.oml import lattice_zoo


@pytest.fixture()
def runner():
    return CliRunner()


@pytest.fixture()
def files(tmp_path):
    zoo = lattice_zoo()
    paths = {}

    def write(name, obj):
        p = tmp_path / name
        p.write_text(json.dumps(obj))
        paths[name] = str(p)
        return str(p)

    write("mo2.json", zoo["MO2"].to_json())
    write("b3.json", zoo["B3"].to_json())
    write("e12.json", matrix_to_json(E12))
    write("m2.json", {"ambient_dim": 2,
                      "generators": [matrix_to_json(E12)]})
    write("diag3.json", {
        "ambient_dim": 3,
        "generators": [matrix_to_json(np.diag([1.0, 2.0, 3.0]).astype(complex))],
    })
    m2p = {"ambient_dim": 2, "generators": [matrix_to_json(E12)],
           "element": matrix_to_json(np.diag([1.0, 0.0]).astype(complex))}
    write("m2_proj.json", m2p)
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    paths["bad.json"] = str(bad)
    paths["tmp"] = tmp_path
    return paths


def test_oml_verify_ok(runner, files):
    res = runner.invoke(main, ["oml", "verify", files["mo2.json"]])
    assert res.exit_code == 0
    assert json.loads(res.output)["ok"]


def test_oml_verify_violation_exits_1(runner, tmp_path):
    # O6, the benzene ring 0 < a < b < 1, 0 < b' < a' < 1: orthocomplemented
    # but not orthomodular
    leq = np.eye(6, dtype=int)
    leq[0, :] = 1
    leq[:, 5] = 1
    leq[1, 2] = leq[3, 4] = 1
    path = tmp_path / "o6.json"
    path.write_text(json.dumps({"n": 6, "leq": leq.tolist(), "ortho": [5, 4, 3, 2, 1, 0]}))
    res = runner.invoke(main, ["oml", "verify", str(path)])
    assert res.exit_code == 1
    rep = json.loads(res.output)
    assert not rep["ok"]
    assert any(v["axiom"] == "orthomodular" for v in rep["violations"])


def test_oml_verify_bad_json(runner, files):
    res = runner.invoke(main, ["oml", "verify", files["bad.json"]])
    assert res.exit_code == 2


def test_oml_semigroup(runner, files):
    res = runner.invoke(main, ["oml", "semigroup", files["mo2.json"]])
    assert res.exit_code == 0
    rep = json.loads(res.output)
    assert rep["semigroup_size"] == 18
    assert rep["recovery_isomorphic"]


def test_oml_semigroup_budget(runner, files):
    res = runner.invoke(main, ["oml", "semigroup", files["mo2.json"],
                               "--cap", "5"])
    assert res.exit_code == 3


@pytest.mark.parametrize("cap, code", [("-1", 2), ("0", 3)])
def test_oml_semigroup_cap_is_a_budget(runner, files, cap, code):
    # a negative budget is an input error, not an exceeded budget
    res = runner.invoke(main, ["oml", "semigroup", files["mo2.json"], "--cap", cap])
    assert res.exit_code == code


def test_oml_boolean(runner, files):
    res = runner.invoke(main, ["oml", "boolean", files["b3.json"]])
    assert res.exit_code == 0
    assert json.loads(res.output)["boolean"]
    res = runner.invoke(main, ["oml", "boolean", files["mo2.json"]])
    assert not json.loads(res.output)["boolean"]


@pytest.mark.parametrize("command", ["boolean", "semigroup"])
@pytest.mark.parametrize("lattice, violation", [
    # an antichain: no bottom and no top
    ({"leq": [[1, 0], [0, 1]], "ortho": [1, 0]}, "bounds.bottom()"),
    # the 3-chain 0 < 1 < 2, whose middle element is its own complement
    ({"leq": [[1, 1, 1], [0, 1, 1], [0, 0, 1]], "ortho": [2, 1, 0]},
     "ortho.complement_join(1,)"),
])
def test_oml_commands_reject_non_oml(runner, tmp_path, command, lattice, violation):
    # the Boolean test and the semigroup are defined on OMLs only; before the
    # check the antichain read as Boolean and both crashed the semigroup
    path = tmp_path / "not_oml.json"
    path.write_text(json.dumps(lattice))
    res = runner.invoke(main, ["oml", command, str(path)])
    assert res.exit_code == 2
    assert res.stderr == f"input error: not an orthomodular lattice: {violation}\n"
    assert res.stdout == ""


@pytest.mark.parametrize("command", ["verify", "boolean", "semigroup"])
@pytest.mark.parametrize("lattice, message", [
    ({"leq": [[1, 0], [1, 1]], "ortho": [1.7, 0]}, "ortho must be a list of integers"),
    ({"leq": [[1, 0], [1, 1]], "ortho": [True, 0]}, "ortho must be a list of integers"),
    ({"leq": [[1, 0], [2, 1]], "ortho": [1, 0]}, "leq must be a list of rows"),
    ({"leq": [[1, 0], [0.5, 1]], "ortho": [1, 0]}, "leq must be a list of rows"),
    ({"leq": [[1, 0], ["1", 1]], "ortho": [1, 0]}, "leq must be a list of rows"),
    ({"leq": [1, 0], "ortho": [1, 0]}, "leq must be a list of rows"),
    ({"ground": ["a", "b"], "members": [[], [0.5], [1], [0, 1]], "ortho": [3, 2, 1, 0]},
     "members must be lists of integer point indices"),
    ({"ground": ["a", "b"], "members": [[], [0], [1], [0, 1]], "ortho": [3.5, 2, 1, 0]},
     "ortho must be a list of integers"),
])
def test_oml_strict_lattice_json(runner, tmp_path, command, lattice, message):
    # casting would read 1.7 as 1 and 2 or 0.5 as true; a point 0.5 of a
    # quantum set used to crash boolean and semigroup with a TypeError
    path = tmp_path / "loose.json"
    path.write_text(json.dumps(lattice))
    res = runner.invoke(main, ["oml", command, str(path)])
    assert res.exit_code == 2
    assert f"input error: {message}" in res.stderr


@pytest.mark.parametrize("lattice, message", [
    ({"n": 5, "leq": [[1, 1], [0, 1]], "ortho": [1, 0], "labels": ["0", "1"]},
     "n must be an integer equal to the number of leq rows"),
    ({"n": 2, "leq": [[1, 1], [0, 1]], "ortho": [1, 0], "labels": [1, 2]},
     "labels must be a list of strings"),
])
def test_oml_verify_rejects_wrong_n_or_labels(runner, tmp_path, lattice, message):
    # both used to pass oml verify as a 2-element OML with exit 0
    path = tmp_path / "mislabeled.json"
    path.write_text(json.dumps(lattice))
    res = runner.invoke(main, ["oml", "verify", str(path)])
    assert res.exit_code == 2
    assert res.stderr == f"input error: {message}\n"


def test_alg_generate_and_blocks(runner, files):
    res = runner.invoke(main, ["alg", "generate", files["m2.json"]])
    assert res.exit_code == 0
    assert json.loads(res.output)["dim"] == 4
    res = runner.invoke(main, ["alg", "blocks", files["diag3.json"]])
    assert res.exit_code == 0
    blocks = json.loads(res.output)["blocks"]
    assert sorted(b["irrep_dim"] for b in blocks) == [1, 1, 1]


def test_claims_run_and_determinism(runner, files):
    cfg = files["tmp"] / "cfg.json"
    cfg.write_text(json.dumps({
        "suite": "prop9",
        "instances": ["diag3.json", "m2_proj.json"],
        "samples": 500,
        "seed": 9,
    }))
    r1 = runner.invoke(main, ["claims", "run", "--config", str(cfg)])
    r2 = runner.invoke(main, ["claims", "run", "--config", str(cfg)])
    assert r1.exit_code == 0
    assert r1.output == r2.output  # byte identical
    rep = json.loads(r1.output)
    verdicts = {(row["claim"], row["instance"]): row["verdict"]
                for row in rep["rows"]}
    assert verdicts[("prop9", "diag3")] == "holds-within-tol"
    assert verdicts[("hat_is_characteristic", "m2_proj")] == "fails"
    assert rep["ok"]  # noncommutative findings never fail the run


def test_claims_csv(runner, files):
    cfg = files["tmp"] / "cfg2.json"
    cfg.write_text(json.dumps({
        "suite": "prop1",
        "instances": ["diag3.json", "m2.json"],
        "samples": 10,
        "seed": 1,
    }))
    res = runner.invoke(main, ["claims", "run", "--config", str(cfg),
                               "--format", "csv"])
    assert res.exit_code == 0
    lines = res.output.strip().splitlines()
    assert lines[0].startswith("suite,claim,instance")
    assert len(lines) > 1


def test_claims_report_format(runner, files):
    # the bytes recorded before the claims `mode` option was removed
    cfg = files["tmp"] / "cfg_prop7.json"
    cfg.write_text(json.dumps({
        "suite": "prop7",
        "instances": ["diag3.json", "m2.json"],
        "samples": 10,
        "seed": 3,
    }))

    def row(instance, verdict, defect, norm):
        return {"claim": "cstar_identity", "instance": instance,
                "defects": {"defect": defect, "norm_f_sq": 1.0,
                            "norm_f_star_fbar": norm},
                "verdict": verdict, "witnesses": [],
                "mode": "superposition", "seed": 3}

    expected = {
        "suite": "prop7",
        "config": {"seed": 3, "samples": 10, "mode": "superposition",
                   "instances": ["diag3.json", "m2.json"]},
        "rows": [row("diag3", "holds-within-tol", 0.0, 1.0),
                 row("m2", "fails", 0.41421356237309515, 1.4142135623730951)],
        "ok": True,
    }
    res = runner.invoke(main, ["claims", "run", "--config", str(cfg)])
    assert res.exit_code == 0
    assert res.output == json.dumps(expected, sort_keys=True, indent=2) + "\n"
    res = runner.invoke(main, ["claims", "run", "--config", str(cfg),
                               "--format", "csv"])
    assert res.exit_code == 0
    assert res.output == (
        "suite,claim,instance,mode,verdict,defect_name,defect_value\n"
        "prop7,cstar_identity,diag3,superposition,holds-within-tol,defect,0.0\n"
        "prop7,cstar_identity,diag3,superposition,holds-within-tol,norm_f_sq,1.0\n"
        "prop7,cstar_identity,diag3,superposition,holds-within-tol,norm_f_star_fbar,1.0\n"
        "prop7,cstar_identity,m2,superposition,fails,defect,0.41421356237309515\n"
        "prop7,cstar_identity,m2,superposition,fails,norm_f_sq,1.0\n"
        "prop7,cstar_identity,m2,superposition,fails,norm_f_star_fbar,1.4142135623730951\n"
    )


def test_claims_preimage_m3_report_bytes(runner, files):
    # on M3 every joined pair ties at violation 0.4 up to rounding.  The
    # witness was re-recorded when violations within LATTICE_TOL of the
    # largest came to tie, the first in sweep order winning, instead of
    # rounding picking it.  Witness and violation were re-recorded when the
    # sweep of 2×2 compressions came to be taken in closed form: the witness
    # is the same state, its vector times a unit phase (3e-17 apart once the
    # phase is aligned), and the violation moved by 4 ulps, from the per-angle
    # loop's 0.40000000000000024 to 0.4; pairs_checked, preimage_size and the
    # verdict did not move
    gen = np.zeros((3, 3), dtype=complex)
    gen[0, 1] = gen[1, 2] = 1.0
    (files["tmp"] / "m3.json").write_text(json.dumps({
        "ambient_dim": 3, "generators": [matrix_to_json(gen)],
        "center": [1.0, 0.0], "radius": 0.6,
    }))
    cfg = files["tmp"] / "cfg_m3.json"
    cfg.write_text(json.dumps({
        "suite": "preimage", "instances": ["m3.json"], "samples": 60, "seed": 0,
    }))
    witness = {"block": 0, "vector": [
        [0.7441874900965576, -0.21496138891919322],
        [0.07213842149762265, -0.2938802186551753],
        [-0.5061016272969863, -0.2286223718975845],
    ]}
    expected = {
        "suite": "preimage",
        "config": {"seed": 0, "samples": 60, "mode": "superposition",
                   "instances": ["m3.json"]},
        "rows": [{"claim": "hat_preimage_qness", "instance": "m3",
                  "defects": {"pairs_checked": 190, "preimage_size": 20,
                              "violation": 0.4},
                  "verdict": "fails", "witnesses": [witness],
                  "mode": "superposition", "seed": 0}],
        "ok": True,
    }
    res = runner.invoke(main, ["claims", "run", "--config", str(cfg)])
    assert res.exit_code == 0
    assert res.output == json.dumps(expected, sort_keys=True, indent=2) + "\n"


def _claims_output(runner, tmp_path, suite, instance):
    """What claims run writes for one suite on one instance, 20 samples at
    seed 0."""
    gens = {"E12xI2": np.kron(E12, np.eye(2)), "M3": np.eye(3, k=1),
            "M2+C": ALGEBRA_ZOO_GENERATORS["M2+C"][0], "C3": ALGEBRA_ZOO_GENERATORS["C3"][0]}
    (tmp_path / f"{instance}.json").write_text(json.dumps({
        "ambient_dim": len(gens[instance]), "generators": [matrix_to_json(gens[instance])]}))
    cfg = tmp_path / f"cfg_{suite}_{instance}.json"
    cfg.write_text(json.dumps({
        "suite": suite, "instances": [f"{instance}.json"], "samples": 20, "seed": 0,
    }))
    res = runner.invoke(main, ["claims", "run", "--config", str(cfg)])
    assert res.exit_code == 0
    return res.output


@pytest.mark.parametrize("suite, instance, digest", [
    pytest.param("prop2", "E12xI2",
                 "55fdabd8dd94eb01304e5cc4c6020b98091dfb28d64b3e6b3e7fa001c00422c7",
                 id="prop2/E12xI2"),
    pytest.param("prop2", "M3",
                 "82f827a0ccf7e23e386ad2e830e6a747ebea92d01dac06906981c60fa4d72917",
                 id="prop2/M3"),
    pytest.param("thm3", "E12xI2",
                 "6e3963bea6d17310f0d046816281ba25058f4615d21b8c34c51f9794c91c5263",
                 id="thm3/E12xI2"),
    pytest.param("thm3", "M3",
                 "4d5b804efcaae1fbd66654eb1b92f03a30f21ab23a43ea8eee5d462873ae7430",
                 id="thm3/M3"),
    # a pruned two-dimensional block beside a one-dimensional one
    pytest.param("thm3", "M2+C",
                 "f134a6ebb9401ad6bf9a0ce3da093f859ecfb59785967483d8030cc5beb76f78",
                 id="thm3/M2+C"),
    # one-dimensional blocks only: every sampled state lies in â's terms
    pytest.param("thm3", "C3",
                 "b4f161a5bc2e1bc2db42de38fdf8d64502e3a3fd3c8ecbf941849bd87cb0f43e",
                 id="thm3/C3"),
])
def test_claims_gns_and_thm3_report_bytes(runner, tmp_path, suite, instance, digest):
    # sha256 of the reports written while gns, is_irreducible and thm3's
    # probes looped over the algebra basis one element at a time
    output = _claims_output(runner, tmp_path, suite, instance)
    assert hashlib.sha256(output.encode()).hexdigest() == digest


@pytest.mark.parametrize("suite, instance, digest", [
    pytest.param("prop7", "E12xI2",
                 "47731582eacf5d2105288d6adc8acac2186f5bcd93ac6fd95a808937f1d41ea6",
                 id="prop7/E12xI2"),
    pytest.param("prop7", "M3",
                 "00bbc8cdd75ff298a14d78caf38dc5611a9087db593537bf3b65e924a8258d97",
                 id="prop7/M3"),
    # re-recorded when the top spectral projections came to be built per
    # block from the block images' eigenvectors, not read back from the
    # ambient projection's block images: the characteristic defect moved
    # from 0.4105030782298378 to ...376 and hat_is_characteristic's from
    # 0.4496627737680695 to ...694; verdicts, witnesses and the other
    # defects kept their bytes
    pytest.param("prop9", "E12xI2",
                 "77fad4f8607aca40b348ce10ee2e2d1068d1022477d06cc7961a1f76b6268a20",
                 id="prop9/E12xI2"),
    pytest.param("prop9", "M3",
                 "1884a7d08abfefdaddccff98d6e431dc23d3bac9d2e0ce20b84eeb7e0ae70a2b",
                 id="prop9/M3"),
])
def test_claims_projector_report_bytes(runner, tmp_path, suite, instance, digest):
    # sha256 of the reports written while a Projector held only its matrix
    # and read its range basis back with an eigh; prop7 and prop9 build
    # their projectors from algebra elements and take meets and sup-norms
    output = _claims_output(runner, tmp_path, suite, instance)
    assert hashlib.sha256(output.encode()).hexdigest() == digest


def test_claims_prop1_disagreement_is_a_failing_claim(runner, files, monkeypatch):
    # prop1 compares the block structure with commutativity: when they
    # disagree, the report is written with a failing prop1 row and the run
    # exits 1, as any failing specified claim does
    ask = FdAlgebra.is_commutative
    monkeypatch.setattr(FdAlgebra, "is_commutative", lambda self: not ask(self))
    cfg = files["tmp"] / "cfg_prop1.json"
    cfg.write_text(json.dumps({
        "suite": "prop1", "instances": ["diag3.json"], "samples": 1, "seed": 0,
    }))
    res = runner.invoke(main, ["claims", "run", "--config", str(cfg)])
    assert res.exit_code == 1
    rep = json.loads(res.output)
    assert not rep["ok"]
    (row,) = rep["rows"]
    assert row["claim"] == "prop1_dichotomy" and row["verdict"] == "fails"
    assert row["defects"] == {"r_discrete": True, "commutative": False}
    assert row["witnesses"] == []


def test_claims_mode_option_removed(runner, files):
    cfg = files["tmp"] / "cfg5.json"
    cfg.write_text(json.dumps({
        "suite": "prop1", "instances": ["diag3.json"], "samples": 5, "seed": 1,
    }))
    res = runner.invoke(main, ["claims", "run", "--config", str(cfg),
                               "--mode", "literal"])
    assert res.exit_code == 2


@pytest.mark.parametrize("key, value", [("sample", 5), ("mode", "literal")])
def test_claims_unknown_config_key(runner, files, key, value):
    # a misspelt key and the retired `mode` are input errors, not defaults
    cfg = files["tmp"] / f"cfg_{key}.json"
    cfg.write_text(json.dumps({
        "suite": "prop1", "instances": ["diag3.json"], "seed": 1, key: value,
    }))
    res = runner.invoke(main, ["claims", "run", "--config", str(cfg)])
    assert res.exit_code == 2
    assert f"unknown claims config field '{key}'" in res.stderr


@pytest.mark.parametrize("change, args, message", [
    ({"seed": "x"}, [], "seed"),
    ({"seed": 1.7}, [], "seed"),
    ({"seed": True}, [], "seed"),
    ({"samples": "many"}, [], "samples"),
    ({"instances": "diag3.json"}, [], "instances must be a list"),
    (None, ["--seed", "3"], "JSON object"),  # the whole config is a JSON list
])
def test_claims_config_types(runner, files, change, args, message):
    # wrong-typed fields are input errors, not crashes or silent coercions
    obj = {"suite": "prop1", "instances": ["diag3.json"], "seed": 1, "samples": 5}
    obj = [obj] if change is None else {**obj, **change}
    cfg = files["tmp"] / "cfg_types.json"
    cfg.write_text(json.dumps(obj))
    res = runner.invoke(main, ["claims", "run", "--config", str(cfg), *args])
    assert res.exit_code == 2
    assert message in res.stderr


def test_claims_missing_seed(runner, files):
    cfg = files["tmp"] / "cfg3.json"
    cfg.write_text(json.dumps({
        "suite": "prop1",
        "instances": ["diag3.json"],
        "samples": 10,
    }))
    res = runner.invoke(main, ["claims", "run", "--config", str(cfg)])
    assert res.exit_code == 2


def test_claims_unknown_suite(runner, files):
    cfg = files["tmp"] / "cfg4.json"
    cfg.write_text(json.dumps({
        "suite": "nope", "instances": ["diag3.json"], "samples": 5, "seed": 1,
    }))
    res = runner.invoke(main, ["claims", "run", "--config", str(cfg)])
    assert res.exit_code == 2


def test_spectral_report(runner, files):
    plot = files["tmp"] / "plot.csv"
    res = runner.invoke(main, ["spectral", "report", files["e12.json"],
                               "--plot-data", str(plot)])
    assert res.exit_code == 0
    rep = json.loads(res.output)
    assert not rep["flags"]["sigma_singleton"]
    lines = plot.read_text().splitlines()
    assert lines[0] == "kind,block,theta,support,re,im"
    rows = [line.split(",") for line in lines[1:]]
    boundary = [complex(float(re), float(im))
                for kind, block, _, _, re, im in rows if kind == "boundary" and block == "0"]
    radii = [abs(z) for z in boundary]
    assert max(radii) == pytest.approx(0.5, abs=1e-8)
    assert len(boundary) == spectral.N_ANGLES == 720
    assert {row[0] for row in rows} == {"boundary"}
    # sigma = {0}, so the gap is the largest boundary radius
    assert rep["sigma_gap"] == pytest.approx(0.5, abs=1e-8)
    assert not {"thetas", "block_boundaries", "cloud", "n_angles", "samples"} & rep.keys()


_JSON_FLOATS = st.one_of(
    st.sampled_from([float("nan"), float("inf"), -float("inf"), -0.0, 5e-324, 1e308]),
    st.floats())
_JSON_INTS = st.one_of(st.integers(), st.integers(2**63, 2**70), st.integers(-2**70, -2**63))
# lists of numbers, bools and None: the flat lists the writer encodes in one call
_JSON_FLAT = st.lists(st.one_of(_JSON_FLOATS, _JSON_INTS, st.booleans(), st.none()))
_JSON_VALUES = st.recursive(
    st.one_of(st.none(), st.booleans(), _JSON_INTS, _JSON_FLOATS, st.text(), _JSON_FLAT),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(st.text(), children, max_size=4)),
    max_leaves=20)


@given(obj=_JSON_VALUES)
@example(obj={"k\"\\\n\t\u00e9\u2028\U0001f600": [float("nan"), float("inf"), -float("inf"),
                                                   -0.0, 5e-324, 1e308, 2**64, True, None],
              "": {}, "e": [], "t": (1, (2.5, "a, b"), ()), "s": ["x", "y, z"]})
# a flat list long enough for the one C-encoder call, and one just short of it
@example(obj={"long": [float("nan"), 1.5, -0.0, 2**64, True, None, -float("inf")] * 3,
              "short": [0.1, -2, False, None, float("inf")] * 3,
              "float64": [np.float64(0.1), np.float64("nan"), [np.float64(-0.0)] * 20]})
def test_canonical_json_matches_stdlib_indent(obj):
    assert canonical_json(obj) == json.dumps(obj, sort_keys=True, indent=2)


def test_spectral_nonsquare(runner, files):
    ns = files["tmp"] / "ns.json"
    ns.write_text(json.dumps(matrix_to_json(np.zeros((2, 3)))))
    res = runner.invoke(main, ["spectral", "report", str(ns)])
    assert res.exit_code == 2


def test_invsub(runner, files):
    res = runner.invoke(main, ["invsub", files["e12.json"], "--mode", "both"])
    assert res.exit_code == 0
    rows = json.loads(res.output)["results"]
    tags = {r["case_tag"] for r in rows}
    assert tags == {"sigma-split-case", "oracle"}
    oracle = next(r for r in rows if r["case_tag"] == "oracle")
    assert oracle["invariance_defect"] <= 1e-10
    # E12's closed-form sigma fiber spans C^2
    paper = next(r for r in rows if r["case_tag"] == "sigma-split-case")
    assert (paper["verdict"], paper["rank"], paper["witness"]) == ("trivial", 2, None)


@pytest.mark.parametrize("argv", [
    ["spectral", "report", "{list}"],
    ["invsub", "{list}", "--seed", "0"],
    ["alg", "generate", "{list}"],
    ["claims", "run", "--config", "{cfg}"],
])
def test_non_object_json_input(runner, files, argv):
    # a top-level JSON list is an input error wherever an object is expected
    (files["tmp"] / "list.json").write_text("[1, 2]")
    cfg = files["tmp"] / "cfg_list.json"
    cfg.write_text(json.dumps({"suite": "prop1", "instances": ["list.json"], "seed": 1}))
    argv = [a.format(list=files["tmp"] / "list.json", cfg=cfg) for a in argv]
    res = runner.invoke(main, argv)
    assert res.exit_code == 2
    assert "must hold a JSON object" in res.stderr


@pytest.mark.parametrize("instance, message", [
    ({"ambient_dim": 2}, "instance bad_alg: an algebra must be an object"),
    ({"generators": [matrix_to_json(E12)]}, "instance bad_alg: an algebra must be an object"),
    ({"ambient_dim": 2, "generators": [5]}, "instance bad_alg: a matrix must be an object"),
    ({"ambient_dim": 3, "generators": [matrix_to_json(E12)]},
     "instance bad_alg: ambient_dim disagrees"),
    ({"ambient_dim": 2, "generators": [{**matrix_to_json(E12), "im": 5}]},
     "instance bad_alg: matrix JSON shape fields disagree"),
    ({"name": "inl", "algebra": [1]}, "instance inl: an algebra must be an object"),
    ({"name": "inl"}, "instance inl: an algebra must be an object"),
    ({"ambient_dim": 2, "generators": [{**matrix_to_json(E12), "re": [["1", "0"], [True, "2.5"]]}]},
     "instance bad_alg: matrix entries must be numbers"),
    # JSON true is a Python int; it must not read as ambient_dim 1
    ({"ambient_dim": True, "generators": [matrix_to_json(np.eye(1))]},
     "instance bad_alg: an algebra must be an object with an integer"),
    ({"name": "inl", "algebra": {"ambient_dim": True, "generators": [matrix_to_json(np.eye(1))]}},
     "instance inl: an algebra must be an object with an integer"),
    ({"name": 5, "algebra": {"ambient_dim": 2, "generators": [matrix_to_json(E12)]}},
     "an inline instance's name must be a string, got 5"),
])
def test_malformed_algebra_instance(runner, files, instance, message):
    # a malformed algebra is an input error naming its instance, not a crash;
    # an entry with a "name" is inline, any other is written to a file
    if "name" in instance:
        entry = instance
    else:
        (files["tmp"] / "bad_alg.json").write_text(json.dumps(instance))
        entry = "bad_alg.json"
    cfg = files["tmp"] / "cfg_bad_alg.json"
    cfg.write_text(json.dumps({"suite": "prop1", "instances": [entry], "seed": 1}))
    res = runner.invoke(main, ["claims", "run", "--config", str(cfg)])
    assert res.exit_code == 2
    assert f"input error: {message}" in res.stderr
    if "name" not in instance:
        for command in ("generate", "blocks"):
            res = runner.invoke(main, ["alg", command, str(files["tmp"] / "bad_alg.json")])
            assert res.exit_code == 2
            assert "input error:" in res.stderr


@pytest.mark.parametrize("extra, message", [
    ({"element": 5}, "a matrix must be an object"),
    ({"element": matrix_to_json(np.eye(2))}, "element must be 3x3, got 2x2"),
    ({"element": matrix_to_json(np.eye(3, k=1))}, "matrix is not in the algebra"),
    ({"center": [1.0]}, "center must be a pair of finite numbers"),
    ({"center": "1+0j"}, "center must be a pair of finite numbers"),
    ({"center": [1.0, float("nan")]}, "center must be a pair of finite numbers"),
    ({"center": [True, 0]}, "center must be a pair of finite numbers"),
    ({"radius": 0}, "radius must be a finite number > 0"),
    ({"radius": -0.5}, "radius must be a finite number > 0"),
    ({"radius": float("inf")}, "radius must be a finite number > 0"),
    ({"radius": "0.1"}, "radius must be a finite number > 0"),
])
def test_malformed_instance_extras(runner, files, extra, message):
    # element, center and radius are checked when the instance loads, so a
    # bad one is an input error naming the instance, not a crash in a suite
    alg = {"ambient_dim": 3,
           "generators": [matrix_to_json(np.diag([1.0, 2.0, 3.0]).astype(complex))]}
    cfg = files["tmp"] / "cfg_extras.json"
    cfg.write_text(json.dumps({
        "suite": "preimage", "seed": 0, "samples": 4,
        "instances": [{"name": "d3", "algebra": alg, **extra}]}))
    res = runner.invoke(main, ["claims", "run", "--config", str(cfg)])
    assert res.exit_code == 2
    assert f"input error: instance d3: {message}" in res.stderr


@pytest.mark.parametrize("im", [5, [0, 0]])
def test_matrix_im_does_not_broadcast(runner, files, im):
    path = files["tmp"] / "bcast.json"
    path.write_text(json.dumps({**matrix_to_json(E12), "im": im}))
    res = runner.invoke(main, ["spectral", "report", str(path)])
    assert res.exit_code == 2
    assert "input error: matrix JSON shape fields disagree" in res.stderr


@pytest.mark.parametrize("command", [["spectral", "report"], ["invsub", "--mode", "paper"]])
@pytest.mark.parametrize("samples", ["0", "-3"])
def test_samples_below_one(runner, files, command, samples):
    res = runner.invoke(main, [*command, files["e12.json"], "--seed", "0",
                               "--samples", samples])
    assert res.exit_code == 2
    assert "--samples" in res.output


@pytest.mark.parametrize("argv, digest", [
    pytest.param(["spectral", "report"],
                 "90ade5899395580257a0afa75915254b7d30cc16c02deb53f9771daecb31f886",
                 id="spectral report"),
    pytest.param(["invsub", "--mode", "both"],
                 "b64e01cda2fccdd9ac262835370bc005a736d9f25430d0b36f960c69a4003c93",
                 id="invsub --mode both"),
])
def test_spectral_report_bytes(runner, tmp_path, argv, digest):
    # sha256 of the outputs written while the Sigma(a) and scalar-case
    # thresholds were still keyword arguments; the shift needs no seeded
    # input.  The spectral report's digest was re-recorded when the angle
    # grid, boundary and cloud left its JSON for --plot-data.  The invsub
    # digest was re-recorded when invsub stopped drawing the Haar cloud it
    # never read: the sigma fiber is now drawn from the start of the seeded
    # stream, so the paper result's projector and defect moved; its case
    # tag, verdict, rank and notes did not.  The spectral report's digest was
    # re-recorded again when the sweep of blocks of size 3 or more came to
    # solve half the angles and take the other half from H(θ+π) = −H(θ):
    # the last bits of block_supports moved (by at most 3.4e-16).  The invsub
    # digest was re-recorded again when the sigma fiber's span came to be taken by
    # one call of the Gram-Schmidt kernel in place of re-orthonormalizing the
    # span once per fiber vector: the same vectors are accepted, and only
    # the last bits of the paper result's projector moved (by at most
    # 2.2e-16 here).  The invsub digest was re-recorded again when the sigma
    # fiber came to be built in closed form, with no draw and no rank cap,
    # and the verdict to read the defect: the paper result's span is now all
    # of C^3 (rank 3, verdict trivial, fiber_size 12, no quantile_fallback or
    # sigma_gap note), every result gained a witness key (null here), and the
    # output no longer depends on --seed or --samples; the oracle result's
    # projector, defect, rank and verdict kept their bytes.  The spectral
    # report's digest was re-recorded again when the sample cloud was
    # deleted: the report lost its n_angles and samples keys, and every
    # other key kept its bytes.
    path = tmp_path / "shift.json"
    path.write_text(json.dumps(matrix_to_json(np.eye(3, k=1))))
    res = runner.invoke(main, [*argv, str(path), "--seed", "0", "--samples", "200"])
    assert res.exit_code == 0
    assert hashlib.sha256(res.output.encode()).hexdigest() == digest


# sha256 of the --plot-data CSV, and of the report keys that stayed
# (everything but thetas, block_boundaries and cloud), as written while the
# JSON report still held the plot arrays.  normal3's two digests were
# re-recorded when the center came to be solved against the generators: its
# algebra is commutative, so the center's basis is an arbitrary basis of a
# fully null system and the blocks came out in another order.  They were
# re-recorded again when the blocks came to be sorted by a fixed key (irrep
# dimension, multiplicity, then the letters' spectra), which fixes that
# order (test_spectral_block_supports_order_free pins the blocks themselves).
# shift3's two digests were re-recorded when the sweep of a block of size 3
# came to take the angles from π on from H(θ+π) = −H(θ): the last bits of its
# supports and boundary points moved (by at most 1e-15); its cloud rows and
# every other key kept their bytes.  Both CSV digests were re-recorded when
# the sample cloud was deleted: each is the earlier CSV with its cloud rows
# removed, byte for byte
_PLOT_PINS = [
    pytest.param(np.eye(3, k=1),
                 "4aa3dc172632de6459573d3fbc9745337f0f384e683353b0da493693063d1c46",
                 "554d80bb24bb3d03fbb6f53e153a591ce134e370b4d839d6eb245c271bbf0470",
                 id="shift3"),
    pytest.param(np.diag([1, 2j, -1]),
                 "4801cf657d614ba0b26190dc54ea9886e0654651a92a0868430d4a861855855a",
                 "d76d9ca518c8172dd0eadb670163c70790a985fe7506e8bf5e6a8fd721cb938f",
                 id="normal3"),
]


def _spectral_report_with_plot(runner, tmp_path, a):
    path = tmp_path / "matrix.json"
    path.write_text(json.dumps(matrix_to_json(a)))
    plot = tmp_path / "plot.csv"
    res = runner.invoke(main, ["spectral", "report", str(path), "--plot-data", str(plot)])
    assert res.exit_code == 0
    return json.loads(res.output), plot.read_bytes()


@pytest.mark.parametrize("a, csv_digest, kept_digest", _PLOT_PINS)
def test_spectral_plot_csv_bytes(runner, tmp_path, a, csv_digest, kept_digest):
    _, csv_bytes = _spectral_report_with_plot(runner, tmp_path, a)
    assert hashlib.sha256(csv_bytes).hexdigest() == csv_digest


@pytest.mark.parametrize("a, csv_digest, kept_digest", _PLOT_PINS)
def test_spectral_report_kept_keys(runner, tmp_path, a, csv_digest, kept_digest):
    # sigma, block_supports and flags are unchanged; sigma_gap is new
    rep, _ = _spectral_report_with_plot(runner, tmp_path, a)
    kept = {k: v for k, v in rep.items() if k != "sigma_gap"}
    text = json.dumps(kept, sort_keys=True, indent=2)
    assert hashlib.sha256(text.encode()).hexdigest() == kept_digest


def test_spectral_block_supports_order_free(runner, tmp_path):
    # the sorted blocks of normal3, as written while the center was still
    # solved against the whole algebra basis: only their order may move
    rep, _ = _spectral_report_with_plot(runner, tmp_path, np.diag([1, 2j, -1]))
    text = json.dumps(sorted(rep["block_supports"]))
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "02479e9bf165ea8ba587437649403d1f819746bbc6fe9107e3da9c4e7909b3d7")


@pytest.mark.parametrize("command, name, digest", [
    pytest.param("verify", "MO3",
                 "12690ee6855462f392cd1e666a715e7161979a000e721ec1f2e161f6dcaa2b18",
                 id="verify/MO3"),
    pytest.param("boolean", "MO3",
                 "463d0f43bd605ed80d609b089fe7c985f186c4c8ed126992bc332b0f5a917074",
                 id="boolean/MO3"),
    pytest.param("semigroup", "MO3",
                 "4d27517ad628135f40e7763a318396274a74dc525f04dedf26d0ff41dcb8671d",
                 id="semigroup/MO3"),
    pytest.param("verify", "hsum_B2_B3",
                 "12690ee6855462f392cd1e666a715e7161979a000e721ec1f2e161f6dcaa2b18",
                 id="verify/hsum_B2_B3"),
    pytest.param("boolean", "hsum_B2_B3",
                 "463d0f43bd605ed80d609b089fe7c985f186c4c8ed126992bc332b0f5a917074",
                 id="boolean/hsum_B2_B3"),
    pytest.param("semigroup", "hsum_B2_B3",
                 "f17993d2a67b8ffddd8f6d6b034d123561ead2be51c1fc27ff08e2e7240fbf67",
                 id="semigroup/hsum_B2_B3"),
    pytest.param("verify", "B4",
                 "12690ee6855462f392cd1e666a715e7161979a000e721ec1f2e161f6dcaa2b18",
                 id="verify/B4"),
    pytest.param("boolean", "B4",
                 "ea7c8ca3e729d37c522b0adad866393de0da9e3cc0ab65060234a00c2c8e1226",
                 id="boolean/B4"),
    pytest.param("semigroup", "B4",
                 "3dfffec7a012bb438284a3206fa91fb9e31dc4571a18bd67354a6aeb94545c5c",
                 id="semigroup/B4"),
])
def test_lattice_report_bytes(runner, tmp_path, command, name, digest):
    # sha256 of the reports the pure-Python lattice loops wrote
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(lattice_zoo()[name].to_json()))
    res = runner.invoke(main, ["oml", command, str(path)])
    assert res.exit_code == 0
    assert hashlib.sha256(res.output.encode()).hexdigest() == digest


def test_out_flag_writes_file(runner, files):
    out = files["tmp"] / "report.json"
    res = runner.invoke(main, ["oml", "verify", files["b3.json"],
                               "--out", str(out)])
    assert res.exit_code == 0
    assert json.loads(out.read_text())["ok"]


def _claims_config(files):
    cfg = files["tmp"] / "cfg_out.json"
    cfg.write_text(json.dumps({
        "suite": "prop7", "instances": ["diag3.json", "m2.json"], "samples": 10, "seed": 3,
    }))
    return str(cfg)


def test_out_over_longer_file_leaves_only_the_report(runner, files):
    out = files["tmp"] / "report.json"
    out.write_bytes(b"x" * 10_000)
    res = runner.invoke(main, ["oml", "verify", files["b3.json"], "--out", str(out)])
    assert res.exit_code == 0
    stdout = runner.invoke(main, ["oml", "verify", files["b3.json"]]).output
    assert out.read_bytes() == stdout.encode()


def test_out_through_symlink_keeps_link_inode_and_mode(runner, files):
    target = files["tmp"] / "target.json"
    target.write_text("old " * 1000)
    target.chmod(0o640)
    inode = target.stat().st_ino
    link = files["tmp"] / "link.json"
    link.symlink_to(target)
    res = runner.invoke(main, ["oml", "verify", files["b3.json"], "--out", str(link)])
    assert res.exit_code == 0
    assert link.is_symlink()
    assert json.loads(target.read_text())["ok"]
    st = target.stat()
    assert (st.st_ino, st.st_mode & 0o777) == (inode, 0o640)


def test_out_dev_null(runner, files):
    # /dev/null is not a regular file: written, never truncated
    res = runner.invoke(main, ["oml", "verify", files["b3.json"], "--out", "/dev/null"])
    assert res.exit_code == 0
    assert res.output == ""


def test_csv_and_plot_data_over_existing_files_keep_their_bytes(runner, files, tmp_path):
    out = files["tmp"] / "claims.csv"
    out.write_bytes(b"y" * 5_000)
    cfg = _claims_config(files)
    res = runner.invoke(main, ["claims", "run", "--config", cfg, "--format", "csv",
                               "--out", str(out)])
    assert res.exit_code == 0
    # the rows test_claims_report_format pins on standard output
    assert out.read_bytes() == runner.invoke(
        main, ["claims", "run", "--config", cfg, "--format", "csv"]).output.encode()
    plot = tmp_path / "plot.csv"
    plot.write_bytes(b"z" * 200_000)
    a, csv_digest, _ = _PLOT_PINS[0].values
    path = tmp_path / "matrix.json"
    path.write_text(json.dumps(matrix_to_json(a)))
    res = runner.invoke(main, ["spectral", "report", str(path), "--plot-data", str(plot)])
    assert res.exit_code == 0
    assert hashlib.sha256(plot.read_bytes()).hexdigest() == csv_digest


@pytest.mark.parametrize("option", ["--out", "--plot-data"])
@pytest.mark.parametrize("where", ["missing/report", "."])
def test_unwritable_output_is_an_input_error(runner, files, option, where):
    # a missing directory, or a directory itself: exit 2 with the path named
    path = files["tmp"] / where
    res = runner.invoke(main, ["spectral", "report", files["e12.json"], option, str(path)])
    assert res.exit_code == 2
    assert f"input error: cannot write {path}: " in res.stderr


def _no_compute(*args, **kwargs):
    raise AssertionError("the command computed before it opened its outputs")


@pytest.mark.parametrize("existing", [False, True], ids=["new", "existing"])
def test_bad_output_path_exits_before_the_compute(runner, files, monkeypatch, existing):
    # every output is opened before the compute: a bad --plot-data exits 2
    # with no work done and the good --out left unwritten (a new file
    # empty, an existing one with its bytes)
    monkeypatch.setattr(spectral, "sigma_big", _no_compute)
    monkeypatch.setattr(harness, "run_suite", _no_compute)
    out = files["tmp"] / "r.json"
    if existing:
        out.write_text("old")
    bad = files["tmp"] / "missing" / "p.csv"
    res = runner.invoke(main, ["spectral", "report", files["e12.json"],
                               "--out", str(out), "--plot-data", str(bad)])
    assert res.exit_code == 2
    assert f"input error: cannot write {bad}: " in res.stderr
    assert out.read_text() == ("old" if existing else "")
    res = runner.invoke(main, ["claims", "run", "--config", _claims_config(files),
                               "--format", "csv", "--out", str(bad)])
    assert res.exit_code == 2
    assert f"input error: cannot write {bad}: " in res.stderr


def test_numerical_failure_after_the_open_leaves_outputs_unwritten(runner, files, monkeypatch):
    def fail(*args, **kwargs):
        raise DecompositionError("no decomposition")

    monkeypatch.setattr(spectral, "sigma_big", fail)
    new, old = files["tmp"] / "new.json", files["tmp"] / "plot.csv"
    old.write_text("old")
    res = runner.invoke(main, ["spectral", "report", files["e12.json"],
                               "--out", str(new), "--plot-data", str(old)])
    assert res.exit_code == 4
    assert (new.read_text(), old.read_text()) == ("", "old")


def test_output_files_are_never_opened_with_o_trunc(runner, files, monkeypatch):
    # Rewriting an existing file with O_TRUNC frees its blocks and makes
    # close() allocate new ones: a median 86-153 µs per rewrite of a
    # 0.5-60 KB file on an ext4 root mounted with discard, against 31-39 µs
    # in place (BENCH_23.json).
    outs = {name: files["tmp"] / name
            for name in ("verify.json", "claims.json", "spectral.json", "plot.csv")}
    for path in outs.values():
        path.write_text("stale")
    opened = []  # (path, whether the open truncates)
    os_open, io_open = os.open, io.open

    def os_open_spy(path, flags, *args, **kwargs):
        opened.append((str(path), bool(flags & os.O_TRUNC)))
        return os_open(path, flags, *args, **kwargs)

    def io_open_spy(file, mode="r", *args, **kwargs):
        if isinstance(file, (str, os.PathLike)):
            opened.append((str(file), "w" in mode))
        return io_open(file, mode, *args, **kwargs)

    monkeypatch.setattr(os, "open", os_open_spy)
    monkeypatch.setattr(io, "open", io_open_spy)
    monkeypatch.setattr(builtins, "open", io_open_spy)
    argvs = [
        ["oml", "verify", files["b3.json"], "--out", str(outs["verify.json"])],
        ["claims", "run", "--config", _claims_config(files), "--out", str(outs["claims.json"])],
        ["spectral", "report", files["e12.json"],
         "--out", str(outs["spectral.json"]), "--plot-data", str(outs["plot.csv"])],
    ]
    for argv in argvs:
        assert runner.invoke(main, argv).exit_code == 0
    monkeypatch.undo()
    written = {path: trunc for path, trunc in opened if path in map(str, outs.values())}
    assert set(written) == set(map(str, outs.values())), "every report goes through os.open"
    assert not any(written.values()), (
        "an output file was opened with O_TRUNC; truncate-on-open cost 86-153 µs per "
        "rewrite on ext4 with discard, against 31-39 µs in place (BENCH_23.json)")
    assert all(path.read_text() != "stale" for path in outs.values())


@pytest.mark.parametrize("kind", ["matrix", "instance"])
def test_non_utf8_input_is_an_input_error(runner, files, kind):
    bad = files["tmp"] / "utf16.json"
    bad.write_bytes(b"\xff\xfe{\x00}\x00")
    if kind == "matrix":
        res = runner.invoke(main, ["spectral", "report", str(bad)])
        message = f"input error: cannot read {bad}: "
    else:
        cfg = files["tmp"] / "cfg_utf16.json"
        cfg.write_text(json.dumps({"suite": "prop1", "instances": ["utf16.json"], "seed": 1}))
        res = runner.invoke(main, ["claims", "run", "--config", str(cfg)])
        message = "input error: cannot read instance utf16.json: "
    assert res.exit_code == 2
    assert message in res.stderr


@pytest.mark.parametrize("second, code", [
    ("same", 2), ("dotted", 2), ("link", 2), ("devnull", 0)])
def test_out_and_plot_data_on_one_file(runner, files, monkeypatch, second, code):
    # the CSV would overwrite the JSON report: exit 2 before the compute,
    # whether one name is given twice or two names reach one file.
    # /dev/null is no regular file, and may take both
    out = files["tmp"] / "r.json"
    plot = {"same": out, "dotted": files["tmp"] / "." / "r.json",
            "link": files["tmp"] / "link.csv", "devnull": "/dev/null"}[second]
    if second == "link":
        plot.symlink_to(out)
    if second == "devnull":
        out = plot
    else:
        monkeypatch.setattr(spectral, "sigma_big", _no_compute)
    res = runner.invoke(main, ["spectral", "report", files["e12.json"],
                               "--out", str(out), "--plot-data", str(plot)])
    assert res.exit_code == code
    assert res.stdout == ""
    if code == 2:
        assert res.stderr == f"input error: {out} and {plot} name one file\n"


@pytest.mark.parametrize("argv", [
    pytest.param(["invsub", "{e12}", "--mode", "bogus"], id="invsub bad mode"),
    pytest.param(["oml", "bogus", "{mo2}"], id="unknown subcommand"),
    pytest.param(["bogus"], id="unknown group"),
    pytest.param(["oml"], id="bare group"),
    pytest.param([], id="no command"),
    pytest.param(["spectral", "report", "{e12}", "--plot", "{tmp}/p.csv"],
                 id="abbreviated option"),
    pytest.param(["oml", "verify", "{mo2}", "--ou", "{tmp}/p.json"], id="abbreviated --out"),
    pytest.param(["oml", "verify", "{mo2}", "{mo2}"], id="extra argument"),
])
def test_usage_error_exits_2_with_empty_stdout(runner, files, argv):
    argv = [a.format(e12=files["e12.json"], mo2=files["mo2.json"], tmp=files["tmp"])
            for a in argv]
    res = runner.invoke(main, argv)
    assert res.exit_code == 2
    assert res.stdout == ""
    assert "usage: qgelfand" in res.stderr
    assert not any(files["tmp"].glob("p.*"))


def _parser_commands(parser, path=()) -> dict[tuple[str, ...], set[str]]:
    """Each command of the parser, as its words, with its public options."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        return {path: {opt for a in parser._actions if a.help != argparse.SUPPRESS
                       for opt in a.option_strings} - {"-h", "--help"}}
    return {cmd: opts for name, sub in subs[0].choices.items()
            for cmd, opts in _parser_commands(sub, (*path, name)).items()}


def _readme() -> str:
    return (pathlib.Path(__file__).resolve().parent.parent / "README.md").read_text()


def _readme_commands() -> dict[tuple[str, ...], set[str]]:
    """Each command line of README's "Command line" block, as its words,
    with the options it names."""
    block = _readme().split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    commands = {}
    for line in block.splitlines():
        if line.startswith("qgelfand "):
            words = line.split()[1:]
            cmd = tuple(itertools.takewhile(re.compile("[a-z]+$").match, words))
            commands[cmd] = set(re.findall(r"--[a-z-]+", line))
    return commands


def test_readme_command_line_lists_every_command_and_option():
    # both ways: a command or option the parser has and README lacks, or
    # one README names and the parser lacks, fails; the hidden --seed and
    # --samples of spectral report and invsub are neither
    assert _readme_commands() == _parser_commands(cli.PARSER)


def test_readme_spectral_key_table_matches_the_report(runner, files):
    # both ways: a key one spectral report writes and README's table lacks,
    # or one the table names and the report lacks, fails
    table = _readme().split("Spectral report (`spectral report`, sorted keys):", 1)[1]
    table = table.split("\n\n", 2)[1]
    documented = re.findall(r"^\| `(\w+)` \|", table, re.MULTILINE)
    res = runner.invoke(main, ["spectral", "report", files["e12.json"]])
    assert res.exit_code == 0
    assert sorted(documented) == sorted(json.loads(res.output))


@pytest.mark.parametrize("words", [(), ("oml",), ("alg",), ("claims",), ("spectral",),
                                   *_parser_commands(cli.PARSER)],
                         ids=lambda words: " ".join(("qgelfand", *words)))
def test_help_exits_0_at_every_level(runner, words):
    res = runner.invoke(main, [*words, "--help"])
    assert res.exit_code == 0
    assert res.stdout.startswith(" ".join(("usage: qgelfand", *words)))
    assert res.stderr == ""


_ANTICHAIN = {"n": 2, "leq": [[1, 0], [0, 1]], "ortho": [1, 0]}


@pytest.mark.parametrize("argv, code, report", [
    (["oml", "verify", "{mo2}"], 0, {"kind": "oml", "ok": True, "violations": []}),
    (["oml", "verify", "{antichain}"], 1, None),
    (["oml", "verify", "{bad}"], 2, None),
    (["oml", "semigroup", "{mo2}", "--cap", "5"], 3, {"ok": False, "budget": 5, "found": 6}),
], ids=["ok", "violation", "malformed json", "budget"])
def test_standalone_process_exit_code_and_report(files, argv, code, report):
    # the console script's path: main() parses sys.argv and exits the process
    antichain = files["tmp"] / "antichain.json"
    antichain.write_text(json.dumps(_ANTICHAIN))
    argv = [a.format(mo2=files["mo2.json"], bad=files["bad.json"], antichain=antichain)
            for a in argv]
    src = pathlib.Path(cli.__file__).resolve().parent.parent
    proc = subprocess.run([sys.executable, "-m", "qgelfand.cli", *argv],
                          capture_output=True, text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == code
    if code == 2:
        assert proc.stdout == ""
        assert proc.stderr.startswith(f"input error: cannot read {files['bad.json']}: ")
    elif code == 1:
        rep = json.loads(proc.stdout)
        assert not rep["ok"] and rep["violations"][0]["axiom"] == "bounds.bottom"
    else:
        assert proc.stdout == canonical_json(report) + "\n"
