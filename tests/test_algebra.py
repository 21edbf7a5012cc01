import tracemalloc

import numpy as np
import pytest

from conftest import E12, SIGMA_X, diagonal_algebra
from qgelfand.algebra import (
    AlgebraMembershipError,
    PureState,
    State,
    StateError,
    as_pure,
    center_basis,
    commutant_basis,
    generate_algebra,
    gns,
    gns_equivalent,
    hat,
    hat_map_diagnostics,
    is_irreducible,
    is_pure,
    orthogonal_states,
    pure_equal,
    pure_to_state,
    r_is_discrete,
    random_pure_state,
    support_projection,
    vector_state,
    _hs_orthonormalize,
)
from qgelfand.linalg import RANK_TOL, op_norm

RNG = np.random.default_rng(7)


def test_generated_dimensions(algebra_zoo):
    expected = {"C2": 2, "C3": 3, "M2": 4, "M3": 9, "M2+C": 5, "CI2": 1}
    for name, alg in algebra_zoo.items():
        assert alg.dim == expected[name], name


def test_generate_idempotent(algebra_zoo):
    alg = algebra_zoo["M2+C"]
    again = generate_algebra(alg.basis)
    assert again.dim == alg.dim
    for b in alg.basis:
        assert again.contains(b)


def test_membership():
    alg = diagonal_algebra(3)
    assert alg.contains(np.diag([5.0, -1.0, 2.0]))
    assert not alg.contains(E12_3())
    with pytest.raises(AlgebraMembershipError):
        alg.require_member(E12_3())


def E12_3():
    m = np.zeros((3, 3), dtype=complex)
    m[0, 1] = 1.0
    return m


def test_commutant_and_center(algebra_zoo):
    m2 = algebra_zoo["M2"]
    assert len(commutant_basis(m2.basis, 2)) == 1
    assert len(center_basis(m2)) == 1
    assert len(center_basis(algebra_zoo["M2+C"])) == 2
    assert len(center_basis(algebra_zoo["C3"])) == 3


def test_block_structures(algebra_zoo):
    expected = {
        "C2": [(1, 1), (1, 1)],
        "C3": [(1, 1), (1, 1), (1, 1)],
        "M2": [(2, 1)],
        "M3": [(3, 1)],
        "M2+C": [(2, 1), (1, 1)],
        "CI2": [(1, 2)],
    }
    for name, alg in algebra_zoo.items():
        dec = alg.decomposition()
        got = sorted((b.irrep_dim, b.multiplicity) for b in dec.blocks)
        assert got == sorted(expected[name]), name


def test_block_reconstruction_oracle(algebra_zoo):
    for name, alg in algebra_zoo.items():
        dec = alg.decomposition()
        total = sum(b.central_projector for b in dec.blocks)
        assert op_norm(total - np.eye(alg.ambient_dim)) < 1e-8, name
        for b in alg.basis:
            assert op_norm(dec.reconstruct(b) - b) < 1e-8, name


def test_block_embed_irrep_roundtrip(algebra_zoo):
    dec = algebra_zoo["M2+C"].decomposition()
    for blk in dec.blocks:
        x = RNG.standard_normal((blk.irrep_dim, blk.irrep_dim)) \
            + 1j * RNG.standard_normal((blk.irrep_dim, blk.irrep_dim))
        assert op_norm(blk.irrep(blk.embed(x)) - x) < 1e-10


def test_state_validation():
    with pytest.raises(StateError):
        State(np.diag([0.7, 0.7]))  # trace 1.4
    with pytest.raises(StateError):
        State(np.array([[0.5, 1.0], [0.0, 0.5]]))  # not Hermitian
    with pytest.raises(StateError):
        State(np.diag([1.5, -0.5]))  # not PSD


def test_pure_state_roundtrip(algebra_zoo):
    alg = algebra_zoo["M2"]
    dec = alg.decomposition()
    p = random_pure_state(dec, RNG)
    rho = pure_to_state(dec, p)
    # the density matrix induces the same functional
    a = alg.random_element(RNG)
    direct = hat(alg, a, p)
    via_rho = rho(a)
    assert abs(direct - via_rho) < 1e-10
    back = as_pure(dec, rho)
    assert back is not None and pure_equal(back, p)


def test_ambient_mixed_but_algebra_pure(algebra_zoo):
    # I/2 is ambient-mixed yet pure on the scalar algebra
    ci = algebra_zoo["CI2"]
    rho = State(np.eye(2) / 2)
    assert is_pure(ci.decomposition(), rho)
    m2 = algebra_zoo["M2"]
    assert not is_pure(m2.decomposition(), rho)


def test_gns_dimensions(algebra_zoo):
    m2 = algebra_zoo["M2"]
    pure = gns(m2, vector_state(np.array([1.0, 0.0])))
    assert pure.dim == 2 and is_irreducible(pure)
    mixed = gns(m2, State(np.eye(2) / 2))
    assert mixed.dim == 4 and not is_irreducible(mixed)
    c3 = algebra_zoo["C3"]
    char = gns(c3, vector_state(np.array([1.0, 0.0, 0.0])))
    assert char.dim == 1 and is_irreducible(char)


def test_gns_representation_oracle(algebra_zoo):
    # pi is a homomorphism and the cyclic vector reproduces the state
    alg = algebra_zoo["M2+C"]
    state = vector_state(np.array([1.0, 1.0, 1.0]) / np.sqrt(3))
    rep = gns(alg, state)
    a = alg.random_element(RNG)
    b = alg.random_element(RNG)
    assert op_norm(rep.pi(a @ b) - rep.pi(a) @ rep.pi(b)) < 1e-8
    om = rep.cyclic_vector
    assert abs(np.vdot(om, rep.pi(a) @ om) - state(a)) < 1e-8


def test_gns_equivalence(algebra_zoo):
    m2 = algebra_zoo["M2"]
    dec = m2.decomposition()
    e1 = as_pure(dec, vector_state(np.array([1.0, 0.0])))
    plus = as_pure(dec, vector_state(np.array([1.0, 1.0]) / np.sqrt(2)))
    assert gns_equivalent(dec, e1, plus)
    c2 = algebra_zoo["C2"]
    dec2 = c2.decomposition()
    a = as_pure(dec2, vector_state(np.array([1.0, 0.0])))
    b = as_pure(dec2, vector_state(np.array([0.0, 1.0])))
    assert not gns_equivalent(dec2, a, b)


def test_support_and_orthogonality(algebra_zoo):
    m2 = algebra_zoo["M2"]
    dec = m2.decomposition()
    e1 = vector_state(np.array([1.0, 0.0]))
    e2 = vector_state(np.array([0.0, 1.0]))
    plus = vector_state(np.array([1.0, 1.0]) / np.sqrt(2))
    assert orthogonal_states(dec, e1, e2)
    assert not orthogonal_states(dec, e1, plus)
    supp = support_projection(dec, e1)
    assert abs(e1(supp) - 1.0) < 1e-10


def test_r_is_discrete_dichotomy(algebra_zoo):
    for name, alg in algebra_zoo.items():
        assert r_is_discrete(alg.decomposition()) == alg.is_commutative(), name


def test_hat_values(algebra_zoo):
    m2 = algebra_zoo["M2"]
    dec = m2.decomposition()
    e1 = as_pure(dec, vector_state(np.array([1.0, 0.0])))
    assert abs(hat(m2, np.eye(2), e1) - 1.0) < 1e-12
    assert abs(hat(m2, SIGMA_X, e1)) < 1e-12
    with pytest.raises(AlgebraMembershipError):
        hat(diagonal_algebra(2), E12, e1)


def test_hat_diagnostics_commutative(algebra_zoo):
    diag = hat_map_diagnostics(algebra_zoo["C3"], 20, np.random.default_rng(3))
    assert diag["multiplicativity_defect"] < 1e-10
    assert diag["separation"]


def test_hat_diagnostics_noncommutative(algebra_zoo):
    diag = hat_map_diagnostics(algebra_zoo["M2"], 20, np.random.default_rng(3))
    assert diag["multiplicativity_defect"] > 1e-3
    assert diag["separation"]


def test_hat_isometric_commutative(algebra_zoo):
    # sup of |a-hat| over the finite pure-state set equals the norm
    alg = algebra_zoo["C3"]
    dec = alg.decomposition()
    points = [PureState(i, np.ones(1)) for i in range(3)]
    for b in alg.basis:
        sup = max(abs(hat(alg, b, p)) for p in points)
        assert abs(sup - op_norm(b)) < 1e-6


# ---------------------------------------------------------------------------
# oracles for the batched closure and center


def _sequential_hs_orthonormalize(mats, rank_tol):
    """Reference: Gram-Schmidt one candidate at a time, two passes."""
    basis = []
    for m in mats:
        v = np.array(m, dtype=complex)
        for _ in range(2):
            for b in basis:
                v -= b * np.vdot(b, v)
        norm = np.linalg.norm(v)
        if norm >= rank_tol:
            basis.append(v / norm)
    return basis


def _full_svd_center_basis(alg):
    """Reference: the center from a full SVD of the commutator system."""
    cols = [np.concatenate([(bj @ bk - bk @ bj).ravel() for bk in alg.basis])
            for bj in alg.basis]
    system = np.column_stack(cols)
    _, svals, vh = np.linalg.svd(system, full_matrices=True)
    nkeep = int(np.sum(svals > RANK_TOL * max(1.0, svals[0])))
    null = vh.conj().T[:, nkeep:]
    mats = [sum(null[j, c] * alg.basis[j] for j in range(alg.dim))
            for c in range(null.shape[1])]
    return _sequential_hs_orthonormalize(mats, RANK_TOL)


def _span_projector(mats):
    rows = np.array([np.ravel(m) for m in mats])
    return rows.T @ rows.conj()


def _closure_round(alg):
    """The candidates of one closure round: basis + products + adjoints."""
    basis = alg.basis
    return (list(basis) + [a @ b for a in basis for b in basis]
            + [a.conj().T for a in basis])


def _random_full_algebra(n, seed):
    rng = np.random.default_rng(seed)
    return generate_algebra([rng.standard_normal((n, n))
                             + 1j * rng.standard_normal((n, n))])


def test_batched_orthonormalize_matches_sequential(algebra_zoo):
    rng = np.random.default_rng(11)
    cases = {name: _closure_round(alg) for name, alg in algebra_zoo.items()}
    cases["M4"] = _closure_round(_random_full_algebra(4, 3))
    # a new direction every 20 candidates: pivots fall in several chunks
    dirs = rng.standard_normal((10, 64)) + 1j * rng.standard_normal((10, 64))
    cases["growing"] = [
        (rng.standard_normal(1 + j // 20) @ dirs[: 1 + j // 20]).reshape(8, 8)
        for j in range(200)
    ]
    for name, mats in cases.items():
        fast = _hs_orthonormalize(mats)
        slow = _sequential_hs_orthonormalize(mats, 1e-8)
        assert len(fast) == len(slow), name
        assert op_norm(_span_projector(fast) - _span_projector(slow)) < 1e-12, name
        gram = np.array([[np.vdot(a, b) for b in fast] for a in fast])
        assert op_norm(gram - np.eye(len(fast))) < 1e-12, name


def test_thin_svd_center_matches_full_svd(algebra_zoo):
    algebras = dict(algebra_zoo)
    for n in (2, 3, 4):
        algebras[f"M{n}"] = _random_full_algebra(n, n)
    for name, alg in algebras.items():
        fast = center_basis(alg)
        slow = _full_svd_center_basis(alg)
        assert len(fast) == len(slow), name
        assert op_norm(_span_projector(fast) - _span_projector(slow)) < 1e-12, name


def test_center_basis_memory_guard():
    # a full SVD of the M8 commutator system builds a 4096 x 4096 left
    # factor and peaks near 264 MB; the thin SVD stays near 12 MB
    alg = _random_full_algebra(8, 7)
    assert alg.dim == 64
    tracemalloc.start()
    try:
        center = center_basis(alg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(center) == 1
    assert peak < 32 * 2**20


@pytest.mark.parametrize("scale", [1e-9, 1e-6, 1.0, 1e6])
def test_closure_is_scale_invariant(scale):
    rng = np.random.default_rng(5)
    u, _ = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
    a = u @ np.diag([1.0, 1.0 + 1e-7, 3.0]) @ u.conj().T
    alg = generate_algebra([scale * a])
    assert alg.dim == 3
    assert alg.decomposition().n_blocks == 3


def test_closure_power_of_two_scaling_is_exact():
    rng = np.random.default_rng(6)
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    base = generate_algebra([a]).basis
    for k in (-40, -1, 3, 30):
        scaled = generate_algebra([np.ldexp(a.real, k) + 1j * np.ldexp(a.imag, k)]).basis
        assert len(scaled) == len(base)
        assert all(np.array_equal(x, y) for x, y in zip(base, scaled))
