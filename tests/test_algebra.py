import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    ALGEBRA_ZOO_GENERATORS,
    E12,
    SIGMA_X,
    diagonal_algebra,
    embed,
    gns_pi,
    loop_contains,
    loop_decomposition_holds,
    loop_equivalent_frames,
    matrix_to_json,
    pure_to_state,
)
from qgelfand import algebra as algebra_module
from qgelfand import harness as harness_module
from qgelfand import linalg as linalg_module
from qgelfand import qspace as qspace_module
from qgelfand.algebra import (
    AlgebraMembershipError,
    Block,
    DecompositionError,
    FdAlgebra,
    GnsRepresentation,
    PureState,
    State,
    StateError,
    as_pure,
    center_basis,
    commutant_basis,
    generate_algebra,
    gns,
    hat,
    is_irreducible,
    pure_equal,
    r_is_discrete,
    random_pure_state,
    same_ray,
    vector_state,
)
from qgelfand.harness import SUITES, RunConfig, run_suite
from qgelfand.linalg import (
    LATTICE_TOL,
    RANK_TOL,
    SIGMA_TOL,
    as_cmatrix,
    cluster_eigenvalues,
    haar_unit_vector,
    hermitian_eig,
    ldexp_complex,
    op_norm,
    orthonormalize,
)
from qgelfand.qspace import hat_as_qfunction, qfunction_star, qfunction_star_at
from qgelfand.spectral import SpectralReport, invariant_subspace, sigma_big

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


def test_membership_is_relative_to_the_norm():
    # RANK_TOL·‖a‖, not RANK_TOL·max(1, ‖a‖): a small off-diagonal matrix
    # is no more a member of a diagonal algebra than a large one
    alg = generate_algebra([np.diag([1.0, 2.0]).astype(complex)])
    assert not alg.contains(1e-8 * E12)
    assert not alg.contains(1e-8 * (np.eye(2) + E12))
    assert alg.contains(np.zeros((2, 2)))
    for k in range(-12, 13):
        assert alg.contains(10.0 ** k * np.diag([1.0, 3.0])), k


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


def _block_list(alg):
    return [(b.irrep_dim, b.multiplicity) for b in alg.blocks]


def test_block_structures(algebra_zoo):
    # in block order: largest irrep first, then largest multiplicity
    expected = {
        "C2": [(1, 1), (1, 1)],
        "C3": [(1, 1), (1, 1), (1, 1)],
        "M2": [(2, 1)],
        "M3": [(3, 1)],
        "M2+C": [(2, 1), (1, 1)],
        "CI2": [(1, 2)],
    }
    for name, alg in algebra_zoo.items():
        assert _block_list(alg) == expected[name], name
    # a scalar commutant: M_n, in the standard frame exactly
    for alg in (algebra_zoo["M2"], algebra_zoo["M3"], _random_full_algebra(4, 3)):
        (blk,) = alg.blocks
        assert np.array_equal(blk.isometry, np.eye(alg.ambient_dim))


def test_block_reconstruction_oracle(algebra_zoo):
    for name, alg in algebra_zoo.items():
        total = sum(b.central_projector for b in alg.blocks)
        assert op_norm(total - np.eye(alg.ambient_dim)) < 1e-8, name
        for b in alg.basis:
            rebuilt = sum(embed(blk, blk.irrep(b)) for blk in alg.blocks)
            assert op_norm(rebuilt - b) < 1e-8, name


def test_block_embed_irrep_roundtrip(algebra_zoo):
    for blk in algebra_zoo["M2+C"].blocks:
        x = RNG.standard_normal((blk.irrep_dim, blk.irrep_dim)) \
            + 1j * RNG.standard_normal((blk.irrep_dim, blk.irrep_dim))
        assert op_norm(blk.irrep(embed(blk, x)) - x) < 1e-10


def test_state_validation():
    with pytest.raises(StateError):
        State(np.diag([0.7, 0.7]))  # trace 1.4
    with pytest.raises(StateError):
        State(np.array([[0.5, 1.0], [0.0, 0.5]]))  # not Hermitian
    with pytest.raises(StateError):
        State(np.diag([1.5, -0.5]))  # not PSD


@pytest.mark.parametrize("entry", [np.nan, complex(0, np.nan)])
def test_pure_state_rejects_non_finite_entries(entry):
    # a NaN norm passes |‖v‖ − 1| > RANK_TOL, and the state would then
    # not be pure_equal to itself
    with pytest.raises(StateError):
        PureState(0, [entry, 0])


def test_pure_state_roundtrip(algebra_zoo):
    alg = algebra_zoo["M2"]
    p = random_pure_state(alg, RNG)
    rho = pure_to_state(alg, p)
    # the density matrix induces the same functional
    a = alg.random_element(RNG)
    direct = hat(alg, a, p)
    via_rho = rho(a)
    assert abs(direct - via_rho) < 1e-10
    back = as_pure(alg, rho)
    assert back is not None and pure_equal(back, p)


def test_same_ray_on_an_overlap_array_is_pure_equal(algebra_zoo):
    # the array form, as the preimage probe applies it to rows of overlaps,
    # decides each pair as pure_equal does: drawn states, a repeated vector
    # and a phase multiple
    m2 = algebra_zoo["M2"]
    rng = np.random.default_rng(4)
    states = [random_pure_state(m2, rng) for _ in range(6)]
    states += [PureState(0, states[0].vector.copy()),
               PureState(0, np.exp(0.7j) * states[1].vector)]
    vecs = np.array([s.vector for s in states])
    overlaps = vecs.conj() @ vecs.T  # overlaps[i, j] = <v_i, v_j>
    equal = [[pure_equal(s, t) for t in states] for s in states]
    assert same_ray(overlaps).tolist() == equal
    assert same_ray(overlaps).sum() == len(states) + 4


def test_ambient_mixed_but_algebra_pure(algebra_zoo):
    # I/2 is ambient-mixed yet pure on the scalar algebra
    ci = algebra_zoo["CI2"]
    rho = State(np.eye(2) / 2)
    assert as_pure(ci, rho) is not None
    m2 = algebra_zoo["M2"]
    assert as_pure(m2, rho) is None


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
    assert op_norm(gns_pi(rep, a @ b) - gns_pi(rep, a) @ gns_pi(rep, b)) < 1e-8
    om = rep.cyclic_vector
    assert abs(np.vdot(om, gns_pi(rep, a) @ om) - state(a)) < 1e-8


def test_r_is_discrete_dichotomy(algebra_zoo):
    for name, alg in algebra_zoo.items():
        assert r_is_discrete(alg) == alg.commutative, name


def test_hat_values(algebra_zoo):
    m2 = algebra_zoo["M2"]
    e1 = as_pure(m2, vector_state(np.array([1.0, 0.0])))
    assert abs(hat(m2, np.eye(2), e1) - 1.0) < 1e-12
    assert abs(hat(m2, SIGMA_X, e1)) < 1e-12
    with pytest.raises(AlgebraMembershipError):
        hat(diagonal_algebra(2), E12, e1)


def test_hat_isometric_commutative(algebra_zoo):
    # sup of |a-hat| over the finite pure-state set equals the norm
    alg = algebra_zoo["C3"]
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
    # the lattice kernels' column sets, one item per column
    cases.update({name: cols.T for name, cols in _column_sets().items()})
    for name, mats in cases.items():
        fast = orthonormalize(mats)
        slow = _sequential_hs_orthonormalize(mats, 1e-8)
        assert len(fast) == len(slow), name
        if not len(slow):
            assert fast.shape == (0, *np.shape(mats)[1:]), name
            continue
        # a direction normalized from a 1e-6 residual is accurate to about
        # machine epsilon / 1e-6
        span_tol = 1e-9 if name.startswith("1e-06 off") else 1e-12
        assert op_norm(_span_projector(fast) - _span_projector(slow)) < span_tol, name
        gram = np.array([[np.vdot(a, b) for b in fast] for a in fast])
        assert op_norm(gram - np.eye(len(fast))) < 1e-12, name


def _column_sets():
    """(d, k) column sets as projector_from_basis receives them from the
    lattice kernels: k = 0..3 random columns on C^d, d ≤ 4, the same with a
    last column within 1e-12 of the span of the others (dropped) or 1e-6
    off it (kept where it leaves the span), and with an all-zero column in
    front."""
    rng = np.random.default_rng(13)
    sets = {}
    for d in range(1, 5):
        for k in range(4):
            cols = rng.standard_normal((d, k)) + 1j * rng.standard_normal((d, k))
            sets[f"random {d}x{k}"] = cols
            sets[f"zero first {d}x{k + 1}"] = np.hstack([np.zeros((d, 1)), cols])
            if k:
                inside = cols[:, :-1] @ rng.standard_normal(k - 1)
                for off in (1e-12, 1e-6):
                    near = inside + off * haar_unit_vector(d, rng)
                    sets[f"{off:g} off span {d}x{k}"] = np.column_stack([cols[:, :-1], near])
    return sets


def test_orthonormalize_leaves_its_argument_unchanged(algebra_zoo):
    # the kernel subtracts in place inside each chunk, on its own copy
    cases = [np.array(_closure_round(alg)) for alg in algebra_zoo.values()]
    cases += [cols.T for cols in _column_sets().values()]
    cases += [np.ascontiguousarray(cols.T, dtype=complex) for cols in _column_sets().values()]
    for items in cases:
        before = items.copy()
        orthonormalize(items)
        assert np.array_equal(items, before)


def test_thin_svd_center_matches_full_svd(algebra_zoo):
    algebras = dict(algebra_zoo)
    for n in (2, 3, 4):
        algebras[f"M{n}"] = _random_full_algebra(n, n)
    for spec in SUMMAND_CASES:
        algebras[str(spec)] = _summand_algebra(*spec)
    for spec in NEARLY_SCALAR_CASES:
        algebras[str(spec)] = _nearly_scalar_algebra(*spec)
    for name, alg in algebras.items():
        fast = center_basis(alg)
        slow = _full_svd_center_basis(alg)
        assert len(fast) == len(slow), name
        assert op_norm(_span_projector(fast) - _span_projector(slow)) < 1e-12, name


def test_center_basis_memory_guard():
    # against the whole basis the M8 commutator system is 4096 x 64: its full
    # SVD builds a 4096 x 4096 left factor and peaks near 264 MB, its thin
    # SVD near 12 MB.  Against the two letters it is 128 x 64 and the center
    # peaks near 0.5 MB
    alg = _random_full_algebra(8, 7)
    assert alg.dim == 64
    tracemalloc.start()
    try:
        center = center_basis(alg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(center) == 1
    assert peak < 2 * 2**20


@pytest.mark.parametrize("scale", [1e-9, 1e-6, 1.0, 1e6])
def test_closure_is_scale_invariant(scale):
    rng = np.random.default_rng(5)
    u, _ = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
    a = u @ np.diag([1.0, 1.0 + 1e-7, 3.0]) @ u.conj().T
    alg = generate_algebra([scale * a])
    assert alg.dim == 3
    assert len(alg.blocks) == 3


def test_closure_power_of_two_scaling_is_exact():
    rng = np.random.default_rng(6)
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    base = generate_algebra([a]).basis
    for k in (-40, -1, 3, 30):
        scaled = generate_algebra([np.ldexp(a.real, k) + 1j * np.ldexp(a.imag, k)]).basis
        assert len(scaled) == len(base)
        assert all(np.array_equal(x, y) for x, y in zip(base, scaled))



@pytest.mark.parametrize("k", [-1000, -600, 600, 1000])
def test_power_of_two_scaling_is_exact_at_extreme_scales(k):
    # the largest entry's power of two comes off before the norm is taken,
    # so the norm neither underflows nor overflows
    rng = np.random.default_rng(6)
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    scaled = generate_algebra([np.ldexp(a.real, k) + 1j * np.ldexp(a.imag, k)])
    assert np.array_equal(scaled.letters, generate_algebra([a]).letters)


@pytest.mark.parametrize("scale", [1e-310, 1e-300, 1e-200, 1e160, 1e300])
def test_hermitian_generator_has_one_letter_at_every_scale(scale):
    # diag(1, 2) is its own adjoint: one letter, and the algebra is C^2
    alg = generate_algebra([scale * np.diag([1.0, 2.0])])
    assert len(alg.letters) == 1
    assert _block_list(alg) == [(1, 1), (1, 1)]

# ---------------------------------------------------------------------------
# oracles for the systems solved against the letters: each must agree with
# the same system solved against the whole algebra basis (the center's is
# test_thin_svd_center_matches_full_svd above)


ZOO_NAMES = ["C2", "C3", "M2", "M3", "M2+C", "CI2"]
# a direct sum of M_k ⊗ I_m summands, a seed and a generator count
SUMMANDS = st.lists(st.tuples(st.integers(1, 3), st.integers(1, 2)), min_size=1, max_size=3)
RANDOM_SPECS = st.tuples(SUMMANDS, st.integers(0, 2**32 - 1), st.integers(1, 2)).filter(
    lambda spec: sum(k * m for k, m in spec[0]) <= 6)
# the dimension, a seed, ε and whether the perturbation is normal
NEARLY_SCALAR_SPECS = st.tuples(st.integers(2, 4), st.integers(0, 2**32 - 1),
                                st.sampled_from([1e-6, 1e-4]), st.booleans())
ALGEBRA_SPECS = st.one_of(st.sampled_from(ZOO_NAMES), RANDOM_SPECS, NEARLY_SCALAR_SPECS)
# fixed draws of both kinds for the center oracle, whose full SVD is costly
SUMMAND_CASES = [([(2, 2)], 1, 1), ([(1, 1), (2, 1)], 2, 2), ([(3, 1), (1, 2)], 3, 1),
                 ([(1, 3)], 4, 1), ([(2, 1), (1, 1), (1, 2)], 5, 2)]
NEARLY_SCALAR_CASES = [(2, 6, 1e-6, False), (3, 7, 1e-6, False), (3, 8, 1e-4, True)]


def _haar_unitary(rng, n):
    q, r = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _nearly_scalar_algebra(n, seed, eps, normal):
    """The algebra of I + εX in a Haar frame, X diagonal or nilpotent: M_n
    or the diagonals, from a generator within ε of the scalars."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, n))
    x = np.diag(np.diag(x)) if normal else np.triu(x, 1)
    u = _haar_unitary(rng, n)
    return generate_algebra([u @ (np.eye(n) + eps * x) @ u.conj().T])


def _summand_algebra(summands, seed, n_gens):
    """The algebra of generic elements of ⊕ M_k ⊗ I_m, in a Haar frame."""
    return generate_algebra(_summand_generators(summands, seed, n_gens))


def _summand_generators(summands, seed, n_gens):
    rng = np.random.default_rng(seed)
    n = sum(k * m for k, m in summands)
    u = _haar_unitary(rng, n)
    gens = []
    for _ in range(n_gens):
        g = np.zeros((n, n), dtype=complex)
        lo = 0
        for k, m in summands:
            x = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
            g[lo:lo + k * m, lo:lo + k * m] = np.kron(x, np.eye(m))
            lo += k * m
        gens.append(u @ g @ u.conj().T)
    return gens


_ORDER_CASES = {**ALGEBRA_ZOO_GENERATORS,
                **{str(spec): _summand_generators(*spec) for spec in SUMMAND_CASES}}


@pytest.mark.parametrize("name", list(_ORDER_CASES))
def test_block_order_is_invariant_under_rotation_and_scale(name):
    gens = _ORDER_CASES[name]
    alg = generate_algebra(gens)
    blocks = alg.blocks
    pairs = _block_list(alg)
    assert [p[0] for p in pairs] == sorted((p[0] for p in pairs), reverse=True)
    # a ↦ 2^k a scales exactly, so the decomposition is bitwise the same
    for k in (-30, 20):
        scaled = generate_algebra([2.0 ** k * g for g in gens])
        assert _block_list(scaled) == pairs
        for blk, other in zip(blocks, scaled.blocks):
            assert np.array_equal(blk.isometry, other.isometry)
    # a ↦ UaU*: the same blocks in the same order, each irrep recognized by
    # the characteristic polynomials of the generators' images
    u = _haar_unitary(np.random.default_rng(41), alg.ambient_dim)
    rotated_gens = [u @ g @ u.conj().T for g in gens]
    rotated = generate_algebra(rotated_gens)
    assert _block_list(rotated) == pairs
    for blk, other in zip(blocks, rotated.blocks):
        for g, h in zip(gens, rotated_gens):
            assert np.allclose(np.poly(blk.irrep(g)), np.poly(other.irrep(h)), atol=1e-8)


def _algebra(spec, algebra_zoo):
    if isinstance(spec, str):
        return algebra_zoo[spec]
    return _summand_algebra(*spec) if isinstance(spec[0], list) else _nearly_scalar_algebra(*spec)


def _same_span(fast, slow):
    gap = op_norm(_span_projector(fast) - _span_projector(slow))
    return len(fast) == len(slow) and gap < 1e-10


@settings(max_examples=40)
@given(spec=ALGEBRA_SPECS)
def test_commutant_of_compressed_letters_matches_full_basis(algebra_zoo, spec):
    alg = _algebra(spec, algebra_zoo)
    for blk in alg.blocks:
        vals, vecs = np.linalg.eigh(blk.central_projector)
        w = vecs[:, vals > 0.5]
        wh, ni = w.conj().T, w.shape[1]
        letters = commutant_basis(list(wh @ alg.letters @ w), ni)
        full = commutant_basis([wh @ b @ w for b in alg.basis], ni)
        assert len(letters) == blk.multiplicity ** 2
        assert _same_span(letters, full)


@settings(max_examples=25)
@given(spec=ALGEBRA_SPECS, state_seed=st.integers(0, 2**32 - 1))
def test_is_irreducible_matches_full_rep_basis(algebra_zoo, spec, state_seed):
    alg = _algebra(spec, algebra_zoo)
    rng = np.random.default_rng(state_seed)
    n = alg.ambient_dim
    states = [
        vector_state(rng.standard_normal(n) + 1j * rng.standard_normal(n)),
        pure_to_state(alg, random_pure_state(alg, rng)),
    ]
    for state in states:
        rep = gns(alg, state)
        full = commutant_basis(rep.rep_basis, rep.dim)
        assert is_irreducible(rep) == (len(full) == 1)


def _loop_gns(alg, state):
    """Reference: the GNS construction one basis element at a time, with d²
    state calls and d² coordinate vectors, each a loop over the basis.
    Returns (dim, rep_basis, cyclic vector, embed)."""
    def coords(a):
        return np.array([np.vdot(b, a) for b in alg.basis])

    gram = np.array([[state(bj.conj().T @ bk) for bk in alg.basis] for bj in alg.basis])
    gram = (gram + gram.conj().T) / 2
    vals, vecs = hermitian_eig(gram)
    keep = vals > RANK_TOL * max(1.0, vals.max())
    basis_coords = vecs[:, keep] / np.sqrt(vals[keep])
    embed = basis_coords.conj().T @ gram
    rep = [embed @ np.array([coords(a @ bk) for bk in alg.basis]).T @ basis_coords
           for a in alg.basis]
    omega = embed @ coords(np.eye(alg.ambient_dim))
    for a, r in zip(alg.basis, rep):
        assert abs(np.vdot(omega, r @ omega) - state(a)) <= 1e-7
    return int(keep.sum()), np.array(rep), omega, embed


@settings(max_examples=30)
@given(spec=st.one_of(st.sampled_from(ZOO_NAMES + ["M4"]), RANDOM_SPECS),
       state_seed=st.integers(0, 2**32 - 1), pure=st.booleans())
def test_stacked_gns_matches_loop(algebra_zoo, spec, state_seed, pure):
    alg = _random_full_algebra(4, 3) if spec == "M4" else _algebra(spec, algebra_zoo)
    rng = np.random.default_rng(state_seed)
    n = alg.ambient_dim
    if pure:
        state = pure_to_state(alg, random_pure_state(alg, rng))
    else:  # a vector state: mixed on the algebra unless a block is one copy of M_n
        state = vector_state(rng.standard_normal(n) + 1j * rng.standard_normal(n))
    rep = gns(alg, state)
    dim, rep_basis, omega, embed = _loop_gns(alg, state)
    assert rep.dim == dim
    assert rep.rep_basis.shape == rep_basis.shape == (alg.dim, dim, dim)
    # the Gram matrix fixes the GNS frame only up to a unitary inside each
    # repeated eigenvalue (M2 at a vector state has one), so the stacked
    # frame is first carried onto the loop's by the unitary w; w is the
    # identity where the kept spectrum is simple
    w = embed @ np.linalg.pinv(rep._embed)
    assert np.max(np.abs(w @ w.conj().T - np.eye(dim))) < 1e-12
    assert np.max(np.abs(w @ rep._embed - embed)) < 1e-12
    assert np.max(np.abs(w @ rep.rep_basis @ w.conj().T - rep_basis)) < 1e-12
    assert np.max(np.abs(w @ rep.cyclic_vector - omega)) < 1e-12
    loop_rep = GnsRepresentation(alg, dim, rep_basis, omega, embed)
    assert is_irreducible(rep) == is_irreducible(loop_rep)


@settings(max_examples=40)
@given(spec=ALGEBRA_SPECS)
def test_is_commutative_matches_all_basis_pairs(algebra_zoo, spec):
    alg = _algebra(spec, algebra_zoo)
    all_pairs = all(op_norm(a @ b - b @ a) <= LATTICE_TOL
                    for i, a in enumerate(alg.basis) for b in alg.basis[i + 1:])
    assert alg.commutative == all_pairs


def test_nearly_scalar_generator_of_m2_is_not_commutative():
    alg = generate_algebra([np.array([[1, 1e-6], [0, 1]])])
    assert alg.dim == 4
    assert not alg.commutative
    assert r_is_discrete(alg) is False


def test_scalar_algebra_has_no_letters():
    alg = generate_algebra([np.eye(2)])
    assert len(alg.letters) == 0 and alg.commutative
    assert len(commutant_basis([], 3)) == 9
    (blk,) = alg.blocks
    assert (blk.irrep_dim, blk.multiplicity) == (1, 2)


NEAR_RANK_TOL_EPS = [3e-9, 1e-8, 3e-8, 1e-7, 3e-7]


def _near_rank_tol_cases(eps):
    """H + εN for n = 2, 3, 4, four each: (generator, its algebra, two
    states on it), drawn in this order from one seeded generator."""
    rng = np.random.default_rng(17)
    for n in (2, 3, 4):
        for _ in range(4):
            h = rng.standard_normal((n, n))
            g = h + h.T + eps * np.triu(rng.standard_normal((n, n)), 1)
            alg = generate_algebra([g])
            x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            yield g, alg, (vector_state(x), pure_to_state(alg, random_pure_state(alg, rng)))


@pytest.mark.parametrize("eps", NEAR_RANK_TOL_EPS)
def test_generator_near_rank_tol_matches_full_basis(eps):
    # H + εN closes to M_n for ε above RANK_TOL, through directions the
    # closure normalizes from residuals near RANK_TOL; commutators with the
    # letters are then O(ε) where the basis elements' are O(1)
    for _, alg, states in _near_rank_tol_cases(eps):
        all_pairs = all(op_norm(a @ b - b @ a) <= LATTICE_TOL
                        for i, a in enumerate(alg.basis) for b in alg.basis[i + 1:])
        assert alg.commutative == all_pairs == r_is_discrete(alg)
        for state in states:
            rep = gns(alg, state)
            assert is_irreducible(rep) == (len(commutant_basis(rep.rep_basis, rep.dim)) == 1)


def _kron_commutation_system(mats, dim):
    """Reference: the commutation system as one np.kron pair per matrix."""
    ident = np.eye(dim)
    return np.vstack([np.kron(ident, m) - np.kron(m.T, ident) for m in mats])


def _same_bits(x, y):
    x, y = np.asarray(x), np.asarray(y)
    return x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


@pytest.mark.parametrize("n", range(1, 10))
def test_broadcast_commutation_system_matches_kron_loop(n):
    rng = np.random.default_rng(n)
    for k in range(1, 17):
        real = rng.standard_normal((k, n, n))
        for mats in (real, real + 1j * rng.standard_normal((k, n, n))):
            assert _same_bits(algebra_module._commutation_system(mats, n),
                              _kron_commutation_system(mats, n))


# the algebras of the claims suites: the zoo and a multiplicity-2 block
CLAIMS_ALGEBRA_GENERATORS = {**ALGEBRA_ZOO_GENERATORS, "E12xI2": [np.kron(E12, np.eye(2))]}


@pytest.mark.parametrize("name", list(CLAIMS_ALGEBRA_GENERATORS))
def test_is_irreducible_matches_commutant_on_full_rank_states(name):
    alg = generate_algebra(CLAIMS_ALGEBRA_GENERATORS[name])
    rng = np.random.default_rng(19)
    n = alg.ambient_dim
    for _ in range(8):
        # prop2's states: g g* / tr for a complex Ginibre g, full rank
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        rho = g @ g.conj().T
        state = State(rho / np.real(np.trace(rho)))
        rep = gns(alg, state)
        oracle = len(commutant_basis(rep.rep_basis, rep.dim)) == 1
        assert is_irreducible(rep) == oracle == (as_pure(alg, state) is not None)


def test_prop2_builds_no_commutation_system_for_irreducibility(monkeypatch):
    # irreducibility is the rank of pi(basis) (Burnside); only the
    # decomposition, run before the spy counts, solves a commutant
    systems = []
    build = algebra_module._commutation_system

    def spy(mats, dim):
        systems.append(dim)
        return build(mats, dim)

    monkeypatch.setattr(algebra_module, "_commutation_system", spy)
    cfg = RunConfig("prop2", ["unused"], seed=0, samples=4)
    for name, gens in CLAIMS_ALGEBRA_GENERATORS.items():
        alg = generate_algebra(gens)
        alg.blocks
        decomposed = len(systems)
        (report,) = harness_module._suite_prop2(alg, {}, cfg, np.random.default_rng(0))
        assert report.verdict == "holds-within-tol"
        assert len(systems) == decomposed, name
    assert systems  # the spy saw the decompositions


def test_prop2_draws_states_pure_on_m2(monkeypatch):
    # every other sampled density matrix is rank one, hence pure on M2; an
    # irreducibility test that always answers no must then fail the suite
    monkeypatch.setattr(harness_module, "is_irreducible", lambda rep: False)
    cfg = RunConfig("prop2", ["unused"], seed=0, samples=4)
    (report,) = harness_module._suite_prop2(generate_algebra([E12]), {}, cfg,
                                            np.random.default_rng(0))
    assert report.verdict == "fails"
    assert report.defects["mismatches"] == 2


def test_thm3_runs_the_configured_samples(monkeypatch):
    # no hidden cap: thm3_diagnostics is handed config.samples, above 50 too
    seen = []
    monkeypatch.setattr(harness_module, "thm3_diagnostics",
                        lambda alg, samples, rng: seen.append(samples))
    cfg = RunConfig("thm3", ["unused"], seed=0, samples=200)
    harness_module._suite_thm3(generate_algebra([E12]), {}, cfg, np.random.default_rng(0))
    assert seen == [200]


def _claims_instances() -> list[dict]:
    """The claims algebras as inline claims-config instances."""
    return [{"name": name, "algebra": {"ambient_dim": gens[0].shape[0],
                                       "generators": [matrix_to_json(g) for g in gens]}}
            for name, gens in CLAIMS_ALGEBRA_GENERATORS.items()]


def test_claims_run_computes_commutativity_at_most_once(monkeypatch):
    computed = []  # each algebra, each time its commutativity is computed
    prop = FdAlgebra.__dict__["commutative"]  # a cached_property
    ask = prop.func

    def counted(self):
        computed.append(self)
        return ask(self)

    monkeypatch.setattr(prop, "func", counted)
    instances = _claims_instances()
    for suite in SUITES:
        computed.clear()
        run_suite(RunConfig(suite, instances, seed=0, samples=5))
        assert len({id(alg) for alg in computed}) == len(computed), suite
        if suite == "prop1":  # its report reads commutativity
            assert len(computed) == len(instances)
        if suite == "prop2":  # specified everywhere: a failure needs no excuse
            assert not computed


def test_claims_suites_eigensolve_only_the_members_they_probe(monkeypatch):
    # prop9 and preimage probe the first of the two random members; the
    # second is drawn, so that the stream is unchanged, and not eigensolved
    solved = []
    top = harness_module.top_projectors
    monkeypatch.setattr(harness_module, "top_projectors",
                        lambda alg, h: solved.append(h) or top(alg, h))
    instances = _claims_instances()
    for suite, per_instance in [("prop7", 2), ("prop9", 1), ("preimage", 1)]:
        solved.clear()
        run_suite(RunConfig(suite, instances, seed=0, samples=5))
        assert len(solved) == per_instance * len(instances), suite


def test_gns_computes_its_coordinate_tables_once_per_algebra(monkeypatch):
    # prop2 builds one GNS representation per state; the coordinates of the
    # basis products and of the identity depend on the algebra alone
    computed = {"product_coords": [], "unit_coords": []}
    for name, seen in computed.items():
        prop = FdAlgebra.__dict__[name]  # a cached_property
        monkeypatch.setattr(prop, "func", lambda self, seen=seen, f=prop.func:
                            seen.append(self) or f(self))
    instances = _claims_instances()
    run_suite(RunConfig("prop2", instances, seed=0, samples=6))
    for seen in computed.values():
        assert len(seen) == len({id(alg) for alg in seen}) == len(instances)


# the claims whose failing rows name a witness; prop1 and the C*-identity
# have none to give
WITNESSED_CLAIMS = {"prop2_purity_irreducibility", "prop9", "hat_is_characteristic",
                    "hat_preimage_qness", "thm3"}


def test_claims_rows_carry_witnesses_exactly_when_they_fail():
    # one rule judges every row: a witness on a row that holds would be
    # picked by the rounding noise of its defect
    failed = set()
    for seed in range(5):
        for suite in SUITES:
            for row in run_suite(RunConfig(suite, _claims_instances(), seed=seed,
                                           samples=20))["rows"]:
                where = (seed, suite, row["claim"], row["instance"])
                if row["verdict"] != "fails":
                    assert row["witnesses"] == [], where
                elif row["claim"] in WITNESSED_CLAIMS:
                    assert row["witnesses"], where
                    failed.add(row["claim"])
    # prop2 holds on every algebra here; the other witnessed claims fail
    assert failed == WITNESSED_CLAIMS - {"prop2_purity_irreducibility"}


@settings(max_examples=30)
@given(spec=ALGEBRA_SPECS, seed=st.integers(0, 2**32 - 1))
def test_hat_model_in_one_block_sums_to_the_block_image(algebra_zoo, spec, seed):
    # a block's model of â is the spectral decomposition of the block images
    # of a's Hermitian parts: its terms add up to a's image, up to the
    # eigenvalue clusters' spread and the dropped terms of |λ| ≤ VERDICT_TOL.
    # Its product with b̂'s model, read at a Haar state and on a term, is
    # the full product's value there
    alg = _algebra(spec, algebra_zoo)
    rng = np.random.default_rng(seed)
    a, b = alg.random_element(rng), alg.random_element(rng)
    for i, blk in enumerate(alg.blocks):
        fa, fb = hat_as_qfunction(alg, a, i), hat_as_qfunction(alg, b, i)
        d = blk.irrep_dim
        assert all(p.dim == d and p.rank > 0 for _, p in fa.terms)
        total = sum((c * p.matrix for c, p in fa.terms), np.zeros((d, d), dtype=complex))
        assert op_norm(total - blk.irrep(a)) <= 1e-8 * max(1.0, op_norm(a))
        full = qfunction_star(fa, fb)
        for v in [haar_unit_vector(d, rng), *(p.basis[:, 0] for _, p in fa.terms[:1])]:
            assert qfunction_star_at(fa, fb, v) == full.evaluate(v)


def _probe_generators(count=870, seed=2718):
    """Generators within ε of a scalar or of a real symmetric matrix, in a
    Haar frame: I + εN (N strictly upper triangular, so nilpotent), I + εD
    (D diagonal) and H + εN, by turns, with n from 2 to 4 and ε
    log-uniform over 1e-10..1e-3."""
    rng = np.random.default_rng(seed)
    gens = []
    for i in range(count):
        n = int(rng.integers(2, 5))
        eps = 10.0 ** rng.uniform(-10, -3)
        x = rng.standard_normal((n, n))
        base, pert = np.eye(n), np.triu(x, 1)
        if i % 3 == 1:
            pert = np.diag(np.diag(x))
        elif i % 3 == 2:
            h = rng.standard_normal((n, n))
            base = h + h.T
        u = _haar_unitary(rng, n)
        gens.append((u @ (base + eps * pert) @ u.conj().T, int(rng.integers(-30, 31))))
    return gens


def test_nearly_scalar_probe_decomposes_at_every_scale():
    # a DecompositionError would propagate: the whole-basis fallback has
    # already run
    for g, k in _probe_generators():
        pairs = _block_list(generate_algebra([g]))
        assert _block_list(generate_algebra([2.0 ** k * g])) == pairs


# ---------------------------------------------------------------------------
# the closure runs only when the basis is read


def _eager_basis(generators):
    """Reference: the closure as one loop from the generators, run before
    anything reads the basis."""
    gens = [as_cmatrix(g) for g in generators]
    n = gens[0].shape[0]
    seed = [np.eye(n, dtype=complex)]
    for g in gens:
        norm = np.linalg.norm(g)
        if norm > 0:
            g = g * 2.0 ** -math.frexp(norm)[1]
        seed.append(g)
        seed.append(g.conj().T)
    basis = orthonormalize(seed)
    while True:
        products = np.matmul(basis[:, None], basis[None, :]).reshape(-1, n, n)
        adjoints = basis.conj().transpose(0, 2, 1)
        new_basis = orthonormalize(np.concatenate([basis, products, adjoints]))
        if len(new_basis) == len(basis):
            return new_basis
        basis = new_basis


def _spectral_input(structure, n):
    """The spectral benchmark's four structures: generic (M_n), the shift
    (M_n, exact), a repeated summand M_{n/2} ⊗ I_2 and a normal matrix (n
    one-dimensional blocks), the last two in a Haar frame."""
    rng = np.random.default_rng(n)
    if structure == "generic":
        return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    if structure == "shift":
        return np.eye(n, k=1)
    u = _haar_unitary(rng, n)
    if structure == "dsum":
        x = rng.standard_normal((n // 2, n // 2)) + 1j * rng.standard_normal((n // 2, n // 2))
        return u @ np.kron(np.eye(2), x) @ u.conj().T
    return u @ np.diag(rng.standard_normal(n) + 1j * rng.standard_normal(n)) @ u.conj().T


SPECTRAL_CASES = ([(s, n) for s in ("generic", "shift", "normal") for n in range(2, 9)]
                  + [("dsum", n) for n in (2, 4, 6, 8)])
_CLOSURE_CASES = {**_ORDER_CASES,
                  **{f"{s}{n}": [_spectral_input(s, n)] for s, n in SPECTRAL_CASES}}


def _bitwise_equal(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("name", list(_CLOSURE_CASES))
def test_lazy_basis_matches_eager_closure(name):
    gens = _CLOSURE_CASES[name]
    assert _bitwise_equal(generate_algebra(gens).basis, _eager_basis(gens))


def test_lazy_basis_matches_eager_closure_on_nearly_scalar_probe():
    # every tenth generator: all three kinds, ε over the whole range
    for g, _ in _probe_generators()[::10]:
        assert _bitwise_equal(generate_algebra([g]).basis, _eager_basis([g]))


@pytest.fixture
def closures(monkeypatch):
    """The letters of every closure run while the test runs."""
    runs = []
    close = algebra_module._close

    def counted(n, letters):
        runs.append(letters)
        return close(n, letters)

    monkeypatch.setattr(algebra_module, "_close", counted)
    return runs


@pytest.mark.parametrize("structure", ["generic", "shift"])
@pytest.mark.parametrize("n", range(2, 9))
def test_irreducible_input_is_never_closed(closures, structure, n):
    a = _spectral_input(structure, n)
    alg = generate_algebra([a])
    blocks = alg.blocks
    sigma_big(a)
    assert not closures
    assert _block_list(alg) == [(n, 1)]
    # why the reconstruction check may be skipped: the identity frame
    # rebuilds every basis element exactly (a zero may change its sign)
    basis = alg.basis
    assert len(closures) == 1
    assert np.array_equal(sum(embed(blk, blk.irrep(basis)) for blk in blocks), basis)


@pytest.mark.parametrize("structure, n", [("dsum", 4), ("dsum", 8), ("normal", 3), ("normal", 8)])
def test_reducible_input_is_closed_by_its_check(closures, structure, n):
    a = _spectral_input(structure, n)
    alg = generate_algebra([a])
    assert not closures
    alg.blocks
    assert len(closures) == 1
    sigma_big(a)
    assert len(closures) == 2


def test_hermitian_eig_is_given_only_hermitian_matrices(monkeypatch):
    # hermitian_eig takes the Hermitian part and checks nothing, because
    # every caller passes a matrix that is Hermitian by construction; this
    # oracle holds the check it dropped, at every call of the claims suites
    # on the algebra zoo and of the spectral pipeline
    calls = []

    def checked(a):
        calls.append(a.shape)
        assert op_norm(a - a.conj().T) <= RANK_TOL * max(1.0, op_norm(a))
        return hermitian_eig(a)

    for module in (linalg_module, algebra_module, qspace_module):
        monkeypatch.setattr(module, "hermitian_eig", checked)
    # inline instances build fresh algebras, so each decomposition runs here
    instances = [{"name": name, "algebra": {"ambient_dim": gens[0].shape[0],
                                            "generators": [matrix_to_json(g) for g in gens]}}
                 for name, gens in ALGEBRA_ZOO_GENERATORS.items()]
    for suite in ("prop2", "prop7", "prop9", "thm3"):
        assert run_suite(RunConfig(suite, instances, seed=0, samples=5))["rows"]
    rng = np.random.default_rng(16)
    for a in (np.eye(3, k=1), rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))):
        sigma_big(a)
        invariant_subspace(a, mode="both")
    assert calls


# ---------------------------------------------------------------------------
# the stacked paths of the decomposition and of Σ(a) against their loops


def _commutant_draws(comm):
    """Every (irreducible subspaces, y) pair _isotypic_blocks may draw from
    the commutant comm, retries included."""
    rng = np.random.default_rng(0)
    for _ in range(algebra_module._MAX_RETRIES):
        x = algebra_module._random_combination(comm, rng)
        vals, vecs = hermitian_eig((x + x.conj().T) / 2)
        yield ([vecs[:, c] for c in cluster_eigenvalues(vals)],
               algebra_module._random_combination(comm, rng))


def _same_groups(got, want):
    if got is None or want is None:
        return got is want
    return ([len(g) for g in got] == [len(g) for g in want]
            and all(_same_bits(u, v) for g, h in zip(got, want) for u, v in zip(g, h)))


def _check_holds(alg, blocks):
    try:
        algebra_module._check_decomposition(alg, blocks)
    except DecompositionError:
        return False
    return True


def _rotated(blocks, angle, stretch=1.0):
    """The blocks with their frame's first and last columns rotated into
    each other by angle, and the first block's isometry scaled by stretch."""
    frame = np.hstack([blk.isometry for blk in blocks])
    c, s = np.cos(angle), np.sin(angle)
    frame[:, [0, -1]] = frame[:, [0, -1]] @ np.array([[c, -s], [s, c]])
    frame[:, :blocks[0].isometry.shape[1]] *= stretch
    widths = np.cumsum([blk.isometry.shape[1] for blk in blocks])[:-1]
    return [Block(blk.irrep_dim, blk.multiplicity, w)
            for blk, w in zip(blocks, np.split(frame, widths, axis=1))]


def _scaled_report(report, k):
    """The report of 2^k·a: sigma_big scales every float of it exactly."""
    return SpectralReport(ldexp_complex(report.sigma, k),
                          [np.ldexp(s, k) for s in report.block_supports],
                          [ldexp_complex(b, k) for b in report.block_boundaries],
                          report.sigma_singleton, report.sigma_equals_big,
                          np.ldexp(report.sigma_gap, k), ldexp_complex(report.a, k))


STACKED_CASES = {
    **{f"zoo/{name}": gens[0] for name, gens in CLAIMS_ALGEBRA_GENERATORS.items()},
    **{f"{s}{n}": _spectral_input(s, n) for s, n in SPECTRAL_CASES},
    **{f"near{eps:g}/{i}": g for eps in NEAR_RANK_TOL_EPS
       for i, (g, _, _) in enumerate(_near_rank_tol_cases(eps))},
}


@pytest.mark.parametrize("name", list(STACKED_CASES))
def test_stacked_paths_match_their_loops(name):
    g = STACKED_CASES[name]
    alg = generate_algebra([g])
    # generate_algebra scales by powers of two, so 2^k·g has the same
    # letters, bit for bit, and the decomposition below covers every k
    for k in range(-40, 41):
        assert _same_bits(generate_algebra([ldexp_complex(g, k)]).letters, alg.letters)
    n = alg.ambient_dim
    letter_sets = [alg.letters] + ([alg.basis] if n <= 4 else [])
    for letters in letter_sets:
        for spaces, y in _commutant_draws(commutant_basis(letters, n)):
            assert _same_groups(algebra_module._equivalent_frames(spaces, y),
                                loop_equivalent_frames(spaces, y))
    # the check's verdict, on the blocks and on frames that rebuild a basis
    # element within RANK_TOL, or miss it, or are not unitary: a stretch of
    # 1 + 2.5e-7 passes the U U* = I test, and only the rebuilt element in
    # the ambient space (stretched by about 1e-6) shows it
    blocks = alg.blocks
    verdicts = []
    for angle, stretch in [(0.0, 1.0), (1e-11, 1.0), (1e-6, 1.0), (0.3, 1.0),
                           (0.0, 1 + 2.5e-7), (0.0, 1 + 1e-5)]:
        trial = _rotated(blocks, angle, stretch)
        verdicts.append(_check_holds(alg, trial))
        assert verdicts[-1] == loop_decomposition_holds(alg, trial), (angle, stretch)
    assert verdicts[0]
    # the escape decisions, on the eigenvalues and on points pushed off them,
    # at every scale; on boundary points pushed in and out at scale 1
    report = sigma_big(g)
    center = report.sigma.mean()
    points = np.concatenate([report.sigma, center + (1 + 1e-3) * (report.sigma - center)])
    for k in range(-40, 41):
        scaled = _scaled_report(report, k)
        zs = ldexp_complex(points, k)
        tol = 100 * SIGMA_TOL * op_norm(scaled.a)
        assert scaled.contains(zs, tol).tolist() == [loop_contains(scaled, z, tol) for z in zs]
        assert scaled.contains(zs[0], tol) is loop_contains(scaled, zs[0], tol)
    bnd = np.concatenate(report.block_boundaries)[::90]
    points = np.concatenate([points, *(center + f * (bnd - center) for f in (1 - 1e-3, 1 + 1e-3))])
    decided = report.contains(points)
    assert decided.tolist() == [loop_contains(report, z) for z in points]
    assert decided[:len(report.sigma)].all()
    assert report.sigma_singleton or not decided.all()


def test_equivalent_frames_matches_its_loop_on_mixed_compressions():
    # spaces of dimensions 2, 1, 2, 1, 2 and a y whose compressions between
    # them are zero, invertible or of rank one: every branch of the grouping
    rng = np.random.default_rng(41)
    dims = [2, 1, 2, 1, 2]
    offsets = np.cumsum([0] + dims)
    seen = set()
    for _ in range(40):
        u = np.linalg.qr(rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8)))[0]
        spaces = [u[:, offsets[i]:offsets[i + 1]] for i in range(len(dims))]
        c = np.zeros((8, 8), dtype=complex)
        for i in range(len(dims)):
            for j in range(len(dims)):
                kind = rng.integers(3)
                shape = (dims[i], dims[j])
                block = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
                if kind == 1 and dims[i] > 1 and dims[i] == dims[j]:
                    block = np.outer(block[:, 0], block[0])  # rank one
                elif kind == 2:
                    block = 0 * block
                c[offsets[i]:offsets[i + 1], offsets[j]:offsets[j + 1]] = block
        y = u @ c @ u.conj().T
        got = algebra_module._equivalent_frames(spaces, y)
        assert _same_groups(got, loop_equivalent_frames(spaces, y))
        seen.add(None if got is None else len(got))
    assert None in seen and len(seen) > 2


def test_decomposition_ranks_pairs_in_one_svd_and_checks_without_kron(monkeypatch):
    # a normal 8×8 input has eight inequivalent one-dimensional irreps.  The
    # per-pair grouping took 28 rank SVDs, and a per-block rebuild in the
    # check an np.kron for each of its eight blocks
    svds, krons = [], []
    svd, kron = np.linalg.svd, np.kron

    def svd_spy(*args, **kwargs):
        caller = sys._getframe(1).f_code.co_name
        if caller in ("_equivalent_frames", "_compression_ranks"):
            svds.append(caller)
        return svd(*args, **kwargs)

    def kron_spy(*args, **kwargs):
        krons.append(1)
        return kron(*args, **kwargs)

    alg = generate_algebra([_spectral_input("normal", 8)])
    monkeypatch.setattr(np.linalg, "svd", svd_spy)
    monkeypatch.setattr(np, "kron", kron_spy)
    assert _block_list(alg) == [(1, 1)] * 8
    assert len(svds) == 1 and not krons
