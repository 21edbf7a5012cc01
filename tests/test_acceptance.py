"""Acceptance suite: twelve end-to-end criteria, one test per criterion.

Each test states its tolerance inline and builds its own oracle where the
expected value is derived rather than fixed.
"""

import json
import time

import numpy as np
import pytest

from conftest import (
    E12,
    SIGMA_X,
    diagonal_algebra,
    gns_pi,
    matrix_to_json,
    proj_ortho,
    projector_from_matrix,
    random_projector,
)
from findings import QSetProduct, compose, powerset_quantum_set, qsubset_closure
from qgelfand.algebra import (
    PureState,
    State,
    as_pure,
    generate_algebra,
    gns,
    is_irreducible,
    r_is_discrete,
    vector_state,
)
from qgelfand.linalg import (
    op_norm,
    proj_join,
    proj_meet,
    projector_from_basis,
    sasaki_product,
)
from qgelfand.oml import verify_oml
from qgelfand.qspace import (
    QFunction,
    hat_is_characteristic_defect,
    hat_preimage_qness,
    prop9_defect,
    qfunction_star,
    thm3_diagnostics,
)
from qgelfand.sasaki import closed_projections, enumerate_semigroup
from qgelfand.spectral import fc_unitary, invariant_subspace, sigma_big
from qgelfand.harness import RunConfig, run_suite


def test_01_oml_axiom_suite(zoo):
    """Criterion 1: lattice zoo passes; 200 random projector pairs satisfy
    the pairwise axioms at 1e-8; under 10 seconds."""
    t0 = time.monotonic()
    for name, lat in zoo.items():
        assert verify_oml(lat) == [], name
    rng = np.random.default_rng(100)
    tol = 1e-8
    for _ in range(200):
        n = int(rng.choice([2, 3]))
        p = random_projector(n, int(rng.integers(1, n)), rng)
        q = random_projector(n, int(rng.integers(1, n)), rng)
        # involution and order reversal
        assert op_norm(proj_ortho(proj_ortho(p)).matrix - p.matrix) < tol
        # complement laws
        assert proj_meet(p, proj_ortho(p)).rank == 0
        assert proj_join(p, proj_ortho(p)).rank == n
        # De Morgan
        assert op_norm(proj_ortho(proj_join(p, q)).matrix
                       - proj_meet(proj_ortho(p), proj_ortho(q)).matrix) < tol
        # orthomodular law on a comparable pair built from q
        sub = projector_from_basis(q.basis[:, :1])
        lhs = proj_join(sub, proj_meet(proj_ortho(sub), q))
        assert op_norm(lhs.matrix - q.matrix) < tol
    assert time.monotonic() - t0 < 10.0


def test_02_foulis_recovery(zoo):
    """Criterion 2: semigroup closed projections recover every zoo lattice
    with at most 8 elements, isomorphically, under 60 seconds."""
    t0 = time.monotonic()
    sizes = {}
    for name, lat in zoo.items():
        if lat.n > 8:
            continue
        sg = enumerate_semigroup(lat)
        recovered, closed, iso = closed_projections(sg)
        assert recovered.n == lat.n, name
        sizes[name] = sg.size
    assert sizes["MO2"] == 18
    assert sizes["B3"] == 8  # Boolean: one element per lattice element
    assert time.monotonic() - t0 < 60.0


def test_03_boolean_collapse(zoo):
    """Criterion 3: on Boolean instances the product is the meet, the
    semigroup is the lattice, and the function product is pointwise to
    1e-12."""
    # set level: the powerset quantum set on three points
    qs = powerset_quantum_set(["x", "y", "z"])
    sp = QSetProduct(qs)
    for u in qs.members:
        for v in qs.members:
            eu = sp.member_element(u)
            ev = sp.member_element(v)
            assert sp.subset_points(compose(sp.semigroup, eu, ev)) == u & v
    # semigroup level: S(X) has exactly one element per lattice element
    for name in ("B1", "B2", "B3"):
        lat = zoo[name]
        assert enumerate_semigroup(lat).size == lat.n
    # function level: pointwise product on a commutative algebra, whose
    # points are the one pure state of each of its blocks
    alg = diagonal_algebra(3)
    points = [PureState(i, np.ones(1)) for i in range(3)]
    rng = np.random.default_rng(0)
    for _ in range(10):
        idx = [i for i in range(3) if rng.random() < 0.7] or [0]
        jdx = [i for i in range(3) if rng.random() < 0.7] or [1]
        cf = complex(rng.standard_normal(), rng.standard_normal())
        u = qsubset_closure(alg, [points[i] for i in idx])
        cg = complex(rng.standard_normal(), rng.standard_normal())
        v = qsubset_closure(alg, [points[j] for j in jdx])
        for p in points:
            f, g = QFunction([(cf, u[p.block])]), QFunction([(cg, v[p.block])])
            expected = f.evaluate(p.vector) * g.evaluate(p.vector)
            assert abs(qfunction_star(f, g).evaluate(p.vector) - expected) < 1e-12


def test_04_commutative_duality():
    """Criterion 4: diagonal algebras of dims 2-5 pass the isomorphism
    diagnostics with every defect at most 1e-10."""
    for n in range(2, 6):
        rep = thm3_diagnostics(diagonal_algebra(n), 40,
                               np.random.default_rng(n))
        assert rep.verdict == "holds-within-tol", n
        assert rep.defects["injective"] and rep.defects["separation"]
        assert rep.defects["homomorphism_defect"] <= 1e-10


def test_05_purity_iff_irreducibility(algebra_zoo):
    """Criterion 5: exact agreement on 100 random states per algebra."""
    rng = np.random.default_rng(55)
    for name in ("C2", "C3", "M2", "M3", "M2+C"):
        alg = algebra_zoo[name]
        n = alg.ambient_dim
        for k in range(100):
            if k % 3 == 0:
                # include genuinely pure states in the mix
                v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
                rho = np.outer(v, v.conj()) / np.vdot(v, v).real
            else:
                g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
                rho = g @ g.conj().T
                rho = rho / np.real(np.trace(rho))
            state = State(rho)
            assert (as_pure(alg, state) is not None) == is_irreducible(gns(alg, state)), name


def test_06_r_discrete_dichotomy(algebra_zoo):
    """Criterion 6: the pure-state equivalence relation is discrete exactly
    for commutative algebras."""
    for name, alg in algebra_zoo.items():
        assert r_is_discrete(alg) == alg.commutative, name


def test_07_sasaki_witness():
    """Criterion 7: compression of |+><+| by |0><0| is |0><0| itself while
    the lattice meet vanishes, at 1e-10."""
    p = projector_from_matrix(np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex))
    plus = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2)
    q = projector_from_basis(plus.reshape(-1, 1))
    assert op_norm(sasaki_product(p, q).matrix - p.matrix) <= 1e-10
    assert op_norm(sasaki_product(q, p).matrix - q.matrix) <= 1e-10
    assert op_norm(proj_meet(p, q).matrix) <= 1e-10


def test_08_spectral_containment():
    """Criterion 8: spectrum inside Sigma on 100 random matrices of dims
    2-5; Sigma = sigma for normal elements; the maximum modulus over
    Sigma(E12), read from its swept boundary, is 0.5 within 1e-9."""
    rng = np.random.default_rng(88)
    for _ in range(100):
        n = int(rng.integers(2, 6))
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        rep = sigma_big(a)
        for lam in rep.sigma:
            assert rep.contains(lam, 1e-6)
    for i in range(20):
        n = int(rng.integers(2, 6))
        h = rng.standard_normal((n, n))
        rep = sigma_big(h + h.T)
        assert rep.sigma_equals_big, (i, n)
    rep = sigma_big(E12)
    boundary = np.concatenate(rep.block_boundaries)
    assert np.max(np.abs(boundary)) == pytest.approx(0.5, abs=1e-9)


def test_09_fc_intertwining():
    """Criterion 9: the GNS multiplication-operator unitary intertwines 20
    random algebra elements within 1e-8 on star-cyclic instances of dims
    2-5."""
    rng = np.random.default_rng(99)
    instances = []
    for n in range(2, 6):
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        h = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        instances.append((a, h / np.linalg.norm(h)))
        d = np.diag(np.arange(1.0, n + 1)).astype(complex)
        instances.append((d, np.ones(n) / np.sqrt(n)))
    for a, h in instances:
        alg = generate_algebra([a])
        rep = fc_unitary(alg, h)
        assert rep.unitarity_defect <= 1e-8
        # π of the GNS representation U maps from, which the report keeps
        u = rep.unitary
        for _ in range(20):
            x = alg.random_element(rng)
            pi = gns_pi(rep.representation, x)
            assert op_norm(x - u @ pi @ u.conj().T) <= 1e-8


def test_10_invariant_subspace():
    """Criterion 10: the oracle always finds a strict invariant line at
    1e-10 on 100 random non-scalar matrices of dims 2-6; the modeled
    construction reports a defect for every instance without asserting
    success: E12's closed-form sigma fiber spans all of C^2, so its verdict
    is trivial."""
    rng = np.random.default_rng(1010)
    for _ in range(100):
        n = int(rng.integers(2, 7))
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        res = invariant_subspace(a, mode="oracle")[0]
        assert 0 < res.dims[0] < n
        assert res.invariance_defect <= 1e-10
    for a in (3 * np.eye(3), np.diag([1.0, 2.0]), E12):
        paper = invariant_subspace(a, mode="paper")[0]
        # every instance yields a report row; defects are measurements,
        # success is never asserted for the modeled construction
        assert paper.case_tag in ("scalar-case", "sigma-split-case",
                                  "out-of-dichotomy")
        if paper.projector is not None:
            assert paper.invariance_defect is not None
    paper = invariant_subspace(E12, mode="paper")[0]
    assert (paper.verdict, paper.dims) == ("trivial", (2, 2))


def test_11_claims_findings():
    """Criterion 11: the fixed falsification findings on M2."""
    m2 = generate_algebra([E12])
    e1 = as_pure(m2, vector_state(np.array([1.0, 0.0])))
    rep = prop9_defect(m2, e1, SIGMA_X, SIGMA_X)
    assert abs(rep.defects["square"] - 1.0) <= 1e-12
    # the projection onto e1, in M2's one block
    p = projector_from_basis(np.eye(2, 1, dtype=complex))
    rep = hat_is_characteristic_defect(m2, [p], 10_000, np.random.default_rng(1))
    assert rep.defects["defect"] >= 0.49
    rep = hat_preimage_qness(m2, [p.matrix], 1.0, 0.1, 3000, np.random.default_rng(2))
    assert rep.verdict == "fails"
    assert rep.witnesses


def test_12_determinism(tmp_path):
    """Criterion 12: identical config and seed reproduce byte-identical
    reports."""
    inst = tmp_path / "m2.json"
    inst.write_text(json.dumps({
        "ambient_dim": 2, "generators": [matrix_to_json(E12)],
    }))
    for suite in ("prop1", "prop9", "thm3"):
        cfg = RunConfig(suite=suite, instances=["m2.json"], seed=3,
                        samples=200, base_dir=tmp_path)
        r1 = json.dumps(run_suite(cfg), sort_keys=True)
        cfg2 = RunConfig(suite=suite, instances=["m2.json"], seed=3,
                         samples=200, base_dir=tmp_path)
        r2 = json.dumps(run_suite(cfg2), sort_keys=True)
        assert r1 == r2, suite
    rep1 = sigma_big(E12)
    rep2 = sigma_big(E12)
    s1 = json.dumps(rep1.to_json(), sort_keys=True)
    s2 = json.dumps(rep2.to_json(), sort_keys=True)
    assert s1 == s2
    # the boundary polylines are not in the JSON report
    for b1, b2 in zip(rep1.block_boundaries, rep2.block_boundaries, strict=True):
        assert np.array_equal(b1, b2)
