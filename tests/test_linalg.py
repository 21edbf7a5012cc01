import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import matrix_to_json, proj_ortho, projector_from_matrix, random_projector
from qgelfand import linalg
from qgelfand.algebra import generate_algebra
from qgelfand.linalg import (
    CLUSTER_GAP,
    RANK_TOL,
    Projector,
    _phase_normalize,
    as_cmatrix,
    cluster_eigenvalues,
    haar_unit_vector,
    hermitian_eig,
    matrix_from_json,
    op_norm,
    orthonormalize,
    proj_join,
    proj_leq,
    proj_meet,
    projector_from_basis,
    sasaki_product,
    support_sweep,
)

RNG = np.random.default_rng(2024)


def test_as_cmatrix_rejects_nonfinite():
    with pytest.raises(ValueError):
        as_cmatrix([[np.nan, 0], [0, 1]])
    with pytest.raises(ValueError):
        as_cmatrix([1, 2, 3])
    # NaN or inf in either part, also in a transpose
    for bad in (complex(np.nan, 0), complex(0, np.nan), complex(np.inf, 0), complex(0, -np.inf)):
        m = np.eye(2, dtype=complex)
        m[0, 1] = bad
        for x in (m, m.T):
            with pytest.raises(ValueError, match="non-finite"):
                as_cmatrix(x)


def test_transposed_input_matches_contiguous_copy():
    # a complex transpose's last axis is not contiguous; every entry point
    # accepts it and gives its contiguous copy's result bit for bit
    m = RNG.standard_normal((3, 3)) + 1j * RNG.standard_normal((3, 3))
    h = m + m.conj().T
    p = random_projector(3, 2, RNG).matrix
    assert np.array_equal(as_cmatrix(m.T), m.T.copy())
    assert np.array_equal(projector_from_matrix(p.T).matrix,
                          projector_from_matrix(p.T.copy()).matrix)
    for x, y in zip(hermitian_eig(h.T), hermitian_eig(h.T.copy())):
        assert np.array_equal(x, y)
    a, b = generate_algebra([m.T]), generate_algebra([m.T.copy()])
    assert a.dim == b.dim == 9
    assert all(np.array_equal(x, y) for x, y in zip(a.basis, b.basis))


@pytest.mark.parametrize("change", [
    {"im": 5}, {"im": [0, 0]}, {"re": [[1.0, 0.0]]}, {"re": "x"}, {"re": [[{}, 0], [0, 0]]},
    # no coercion: a numeric string, a bool or a float size is not read as
    # a number
    {"re": [["1", "0"], [True, "2.5"]], "im": [[0, 0], [0, False]]},
    {"re": [[1.0, 0.0], [0.0, "2.5"]]}, {"im": [[0.0, 0.0], [True, 0.0]]},
    {"rows": 2.0}, {"cols": True},
    # an int beyond the float range is a non-finite entry, not a crash
    {"re": [[1, 0], [0, 10 ** 400]]},
])
def test_matrix_from_json_requires_full_shapes(change):
    # re and im must each have shape (rows, cols): nothing broadcasts; every
    # entry is an int or a float, and rows and cols are ints
    obj = {**matrix_to_json(np.eye(2)), **change}
    with pytest.raises(ValueError):
        matrix_from_json(obj)
    for obj in (5, [1], {"rows": 2, "cols": 2, "re": [[1, 0], [0, 1]]}):
        with pytest.raises(ValueError):
            matrix_from_json(obj)


def test_matrix_json_roundtrip():
    a = RNG.standard_normal((3, 4)) + 1j * RNG.standard_normal((3, 4))
    b = matrix_from_json(matrix_to_json(a))
    assert np.allclose(a, b)
    bad = matrix_to_json(a)
    bad["rows"] = 5
    with pytest.raises(ValueError):
        matrix_from_json(bad)


def test_hermitian_eig_sigma_x():
    vals, vecs = hermitian_eig(np.array([[0, 1], [1, 0]], dtype=complex))
    assert np.allclose(vals, [-1.0, 1.0])
    # oracle: reassemble
    assert op_norm(vecs @ np.diag(vals) @ vecs.conj().T
                   - np.array([[0, 1], [1, 0]])) < 1e-12


def test_hermitian_eig_deterministic_phase():
    a = RNG.standard_normal((5, 5)) + 1j * RNG.standard_normal((5, 5))
    a = a + a.conj().T
    _, v1 = hermitian_eig(a)
    _, v2 = hermitian_eig(a.copy())
    assert np.array_equal(v1, v2)
    # first nonzero entry of each column is positive real
    for j in range(5):
        col = v1[:, j]
        nz = np.flatnonzero(np.abs(col) > 1e-9)
        assert abs(col[nz[0]].imag) < 1e-12 and col[nz[0]].real > 0


def test_orthonormalize_rank_and_orthogonality():
    cols = np.column_stack([
        [1.0, 0, 0], [1.0, 1e-12, 0], [0, 1.0, 0],
    ]).astype(complex)
    q = orthonormalize(cols.T).T
    assert q.shape[1] == 2
    assert op_norm(q.conj().T @ q - np.eye(2)) < 1e-12
    # no items: a (0, n) basis, and the zero projector on C^n
    assert orthonormalize(np.zeros((0, 3))).shape == (0, 3)
    p = projector_from_basis(np.zeros((3, 0)))
    assert (p.dim, p.rank) == (3, 0)
    assert np.array_equal(p.matrix, np.zeros((3, 3)))


def test_projector_validation():
    with pytest.raises(ValueError):
        projector_from_matrix(np.array([[0.5, 0.5], [0.5, 0.6]]))
    p = projector_from_matrix(np.diag([1.0, 0.0]))
    assert p.rank == 1 and p.dim == 2
    # a Projector is built from its range basis, by keyword only: a matrix
    # passed positionally is not read as a basis
    with pytest.raises(TypeError):
        Projector(np.diag([1.0, 0.0]))


def test_projector_lattice_ops_commuting_oracle():
    # on commuting (diagonal) projectors, meet is the product, join the max
    p = projector_from_matrix(np.diag([1.0, 1.0, 0.0, 0.0]))
    q = projector_from_matrix(np.diag([0.0, 1.0, 1.0, 0.0]))
    assert op_norm(proj_meet(p, q).matrix - p.matrix @ q.matrix) < 1e-10
    assert op_norm(proj_join(p, q).matrix - np.diag([1.0, 1, 1, 0])) < 1e-10
    assert op_norm(proj_ortho(p).matrix - np.diag([0.0, 0, 1, 1])) < 1e-10


def test_projector_de_morgan_random():
    for _ in range(20):
        p = random_projector(4, 2, RNG)
        q = random_projector(4, 1, RNG)
        lhs = proj_ortho(proj_join(p, q))
        rhs = proj_meet(proj_ortho(p), proj_ortho(q))
        assert op_norm(lhs.matrix - rhs.matrix) < 1e-8
        assert proj_leq(proj_meet(p, q), p)
        assert proj_leq(p, proj_join(p, q))


def test_orthomodular_law_random_projectors():
    # p <= q implies p v (p-perp ^ q) = q; force p <= q by construction
    for _ in range(20):
        q = random_projector(4, 3, RNG)
        p = projector_from_basis(q.basis[:, :2])
        lhs = proj_join(p, proj_meet(proj_ortho(p), q))
        assert op_norm(lhs.matrix - q.matrix) < 1e-8


def test_sasaki_product_witness():
    p = projector_from_matrix(np.array([[1.0, 0], [0, 0]], dtype=complex))
    plus = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2)
    q = projector_from_basis(plus.reshape(-1, 1))
    assert op_norm(sasaki_product(p, q).matrix - p.matrix) < 1e-10
    assert op_norm(sasaki_product(q, p).matrix - q.matrix) < 1e-10
    assert proj_meet(p, q).rank == 0


@st.composite
def projector_pairs(draw):
    """Two projectors on C^n, n in 2..5, of any ranks 0..n; each spans
    either coordinate axes (exact overlaps) or random complex columns."""
    n = draw(st.integers(2, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def projector():
        rank = draw(st.integers(0, n))
        if draw(st.booleans()):
            cols = np.eye(n)[:, draw(st.permutations(range(n)))[:rank]]
        else:
            cols = rng.standard_normal((n, rank)) + 1j * rng.standard_normal((n, rank))
        return projector_from_basis(cols)

    return projector(), projector()


@given(projector_pairs())
def test_sasaki_closed_form_matches_lattice_chain(pair):
    p, q = pair
    closed = sasaki_product(p, q)
    chain = proj_meet(p, proj_join(proj_ortho(p), q))
    assert closed.rank == chain.rank
    assert op_norm(closed.matrix - chain.matrix) <= 1e-12


@st.composite
def norm_matrices(draw):
    """Real or complex matrices of 1..8 rows and columns and any rank up to
    full, so zero and rank-deficient matrices come up."""
    rows, cols = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    rank = draw(st.integers(0, min(rows, cols)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    left, right = rng.standard_normal((rows, rank)), rng.standard_normal((rank, cols))
    if draw(st.booleans()):
        left = left + 1j * rng.standard_normal((rows, rank))
        right = right + 1j * rng.standard_normal((rank, cols))
    return left @ right


@given(norm_matrices())
def test_op_norm_matches_numpy_two_norm(a):
    assert op_norm(a) == float(np.linalg.norm(a, 2))


def test_op_norm_of_an_empty_matrix_is_zero():
    assert op_norm(np.zeros((0, 3))) == 0.0


def test_haar_unit_vector_norm():
    for _ in range(10):
        v = haar_unit_vector(6, RNG)
        assert abs(np.linalg.norm(v) - 1.0) < 1e-12


def test_random_projector_rank():
    p = random_projector(5, 3, RNG)
    assert p.rank == 3
    assert op_norm(p.matrix @ p.matrix - p.matrix) < 1e-10
    empty = random_projector(4, 0, RNG)
    assert empty.rank == 0 and empty.dim == 4
    assert np.array_equal(empty.matrix, np.zeros((4, 4)))


@given(projector_pairs())
def test_lattice_results_pass_projector_checks(pair):
    # the lattice kernels build their results from a basis without
    # projector_from_matrix's checks; every result passes them, and its
    # matrix is its orthonormal basis multiplied out
    p, q = pair
    results = [p, q, proj_ortho(p), proj_meet(p, q), proj_join(p, q), sasaki_product(p, q)]
    for r in results:
        checked = projector_from_matrix(r.matrix)
        assert checked.rank == r.rank
        assert op_norm(checked.matrix - r.matrix) <= 1e-12
        assert op_norm(r.basis.conj().T @ r.basis - np.eye(r.rank)) <= 1e-12
        assert np.array_equal(r.matrix, r.basis @ r.basis.conj().T)
    vals, vecs = hermitian_eig(p.matrix + q.matrix)
    meet = projector_from_basis(vecs[:, vals > 2 - RANK_TOL])
    assert np.array_equal(proj_meet(p, q).matrix, meet.matrix)


# the lattice formulas that read a range basis back from the matrix with an
# eigh (and took the orthocomplement as I − P), as oracles for the kernels
# that work from the stored basis


def _eigh_range_basis(m):
    vals, vecs = hermitian_eig(m)
    return vecs[:, vals > 0.5]


def _oracle_join(p, q):
    return projector_from_basis(np.hstack([_eigh_range_basis(p.matrix),
                                           _eigh_range_basis(q.matrix)]))


def _oracle_sasaki(p, q):
    return projector_from_basis(p.matrix @ _eigh_range_basis(q.matrix))


def _oracle_ortho(p):
    return projector_from_matrix(np.eye(p.dim) - p.matrix)


@given(projector_pairs())
def test_lattice_kernels_match_eigh_formulas(pair):
    p, q = pair
    for got, ref in [(proj_join(p, q), _oracle_join(p, q)),
                     (sasaki_product(p, q), _oracle_sasaki(p, q)),
                     (proj_ortho(p), _oracle_ortho(p))]:
        assert got.rank == ref.rank
        assert op_norm(got.matrix - ref.matrix) <= 1e-12


def _oracle_leq(p, q):
    # containment read off a meet: range(p) lies in range(q) when their
    # meet keeps all of p's rank
    return proj_meet(p, q).rank >= p.rank


def _containment_pairs():
    """(p, q, p <= q) with p nested in q, equal to q in another basis, or
    drawn independently of q."""
    rng = np.random.default_rng(12)
    pairs = []
    for n in (2, 3, 5):
        for rank in range(n + 1):
            q = random_projector(n, rank, rng)
            for k in range(rank + 1):
                mix = rng.standard_normal((rank, k)) + 1j * rng.standard_normal((rank, k))
                pairs.append((projector_from_basis(q.basis @ mix), q, True))
                generic = random_projector(n, k, rng)
                pairs.append((generic, q, k == 0 or rank == n))
    return pairs


def test_proj_leq_matches_meet_rank_oracle():
    for p, q, nested in _containment_pairs():
        assert proj_leq(p, q) == _oracle_leq(p, q) == nested
        assert proj_leq(q, p) == _oracle_leq(q, p)


# ---------------------------------------------------------------------------
# the column loops that _phase_normalize and cluster_eigenvalues replaced, as
# oracles: the array versions must agree with them exactly


def _loop_phase_normalize(vecs):
    out = vecs.copy()
    for j in range(out.shape[1]):
        col = out[:, j]
        nz = np.flatnonzero(np.abs(col) > 1e-12 * max(1.0, np.abs(col).max()))
        if nz.size:
            pivot = col[nz[0]]
            out[:, j] = col * (pivot.conjugate() / abs(pivot))
    return out


def _loop_cluster_eigenvalues(vals, gap):
    clusters = [[0]]
    for i in range(1, len(vals)):
        if vals[i] - vals[i - 1] > gap:
            clusters.append([i])
        else:
            clusters[-1].append(i)
    return [np.array(c) for c in clusters]


def _phase_cases():
    rng = np.random.default_rng(31)
    cases = []
    for n in (1, 2, 3, 5):
        m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        cases.append(np.linalg.eigh(m + m.conj().T)[1])
    # leading entries at and below the pivot threshold, a zero column, tiny
    # and large columns, and a 1×1 zero
    v = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    v[0, 0], v[:2, 1], v[:, 2] = 1e-13, [1e-12, 2e-12], 0.0
    cases += [v, 1e-14 * v, 1e14 * v, np.zeros((1, 1), dtype=complex)]
    # degenerate spectra: the eigenvectors of projectors and of the identity
    p = random_projector(4, 2, rng).matrix
    cases += [np.linalg.eigh(p)[1], np.linalg.eigh(np.eye(3, dtype=complex))[1]]
    return cases


@pytest.mark.parametrize("i", range(len(_phase_cases())))
def test_phase_normalize_matches_column_loop(i):
    vecs = _phase_cases()[i]
    got = _phase_normalize(vecs)
    assert got.dtype == vecs.dtype
    assert np.array_equal(got, _loop_phase_normalize(vecs))


_CLUSTER_CASES = [
    np.array([0.5]),
    np.array([1.0, 1.0, 1.0]),
    np.array([0.0, 0.0, 1.0, 1.0 + 1e-10, 2.0]),
    # gaps just below, at and above CLUSTER_GAP
    np.array([-1.0, 0.0, 5e-10, 1.5e-9, 3.5e-9, 1.0]),
    # random values, each with copies 1e-10 and 1e-8 above it
    np.sort((np.random.default_rng(8).standard_normal(6) + [[0.0], [1e-10], [1e-8]]).ravel()),
    np.linalg.eigvalsh(np.kron(np.diag([1.0, 2.0]), np.eye(3))),
]


# each case is named by the gap it is clustered at
@pytest.mark.parametrize("vals", _CLUSTER_CASES, ids=[
    f"vals{i}-{CLUSTER_GAP:g}" for i in range(len(_CLUSTER_CASES))])
def test_cluster_eigenvalues_matches_loop(vals):
    got, ref = cluster_eigenvalues(vals), _loop_cluster_eigenvalues(vals, CLUSTER_GAP)
    assert len(got) == len(ref)
    for x, y in zip(got, ref):
        assert x.dtype == y.dtype and np.array_equal(x, y)


def test_cluster_eigenvalues_of_nothing_is_one_empty_cluster():
    # the loop returned [array([0])], an index into an empty array
    (cluster,) = cluster_eigenvalues(np.array([]))
    assert cluster.size == 0


def _small_sweep_inputs():
    """(3, k, d, d) stacks for d = 1 and 2: k matrices at the scales 1,
    1e-150 and 1e150, where squaring an entry would under- or overflow."""
    rng = np.random.default_rng(17)
    ones = np.array([[2 + 1j], [-0.5j], [3.0]])[:, :, None]
    twos = np.array([
        (2 + 1j) * np.eye(2),  # scalar: every Hermitian part is scalar too
        np.diag([1.0, 1.0 + 1e-12]),  # the two eigenvalues all but tie
        [[1.0, 2 - 1j], [2 + 1j, -3.0]],  # Hermitian
        [[0.0, 1.0], [0.0, 0.0]],  # nilpotent E12
        *(rng.standard_normal((3, 2, 2)) + 1j * rng.standard_normal((3, 2, 2))),
    ], dtype=complex)
    scales = np.array([1.0, 1e-150, 1e150])[:, None, None, None]
    return [scales * ones[None], scales * twos[None]]


@pytest.mark.parametrize("ms", _small_sweep_inputs(), ids=["d1", "d2"])
def test_closed_form_sweep_matches_eigh_loop(ms):
    # the closed form against one eigh per matrix and angle: support value,
    # unit η, eigen-residual and boundary point <η, mη>, each relative to
    # the matrix norm
    thetas = np.linspace(0.0, 2 * np.pi, 64, endpoint=False)
    supports, etas = support_sweep(ms, len(thetas))
    assert supports.shape == ms.shape[:2] + (64,)
    assert etas.shape == ms.shape[:2] + (64, ms.shape[-1])
    for idx in np.ndindex(ms.shape[:2]):
        m = ms[idx]
        tol = 1e-13 * np.linalg.norm(m, 2)
        for k, theta in enumerate(thetas):
            rot = np.exp(-1j * theta) * m
            h = (rot + rot.conj().T) / 2
            vals, vecs = np.linalg.eigh(h)
            lam, eta = supports[idx][k], etas[idx][k]
            assert abs(lam - vals[-1]) <= tol
            assert abs(np.linalg.norm(eta) - 1) <= 1e-15 * len(eta)
            assert np.linalg.norm(h @ eta - lam * eta) <= tol
            assert abs(np.vdot(eta, m @ eta) - np.vdot(vecs[:, -1], m @ vecs[:, -1])) <= tol


def test_closed_form_sweep_never_calls_eigh(monkeypatch):
    # stacks of 1×1 and 2×2 matrices stay on the closed form; a 3×3 stack
    # reaches the patched eigh, so the patch is the one support_sweep sees
    def no_eigh(*args, **kwargs):
        raise AssertionError("eigh called")

    monkeypatch.setattr(linalg.np.linalg, "eigh", no_eigh)
    for ms in _small_sweep_inputs():
        support_sweep(ms, 64)
        support_sweep(ms[0, 0], 720)
    with pytest.raises(AssertionError, match="eigh called"):
        support_sweep(np.eye(3, dtype=complex), 8)


def _large_sweep_inputs(d):
    """(k, d, d) stacks for d ≥ 3: random complex matrices, the nilpotent
    shift, and a Hermitian matrix whose top eigenvalue is repeated; for
    d = 3 also the random ones at the scales 1e-150 and 1e150."""
    rng = np.random.default_rng(100 + d)
    randoms = rng.standard_normal((2, d, d)) + 1j * rng.standard_normal((2, d, d))
    u = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))[0]
    spectrum = np.concatenate([[2.0, 2.0], np.linspace(-1.0, 1.0, d - 2)])
    hermitian = (u * spectrum) @ u.conj().T
    ms = [*randoms, np.eye(d, k=1), (hermitian + hermitian.conj().T) / 2]
    if d == 3:
        ms += [scale * m for scale in (1e-150, 1e150) for m in randoms]
    return np.array(ms, dtype=complex)


@pytest.mark.parametrize("n_angles", [720, 64])
@pytest.mark.parametrize("d", range(3, 9))
def test_half_angle_sweep_matches_eigh_loop(d, n_angles):
    # the stacked eigh over half the angles, with H(θ+π) = −H(θ) giving the
    # other half, against one eigh per matrix and angle: support value, unit
    # η and eigen-residual, each relative to the matrix norm, and the
    # boundary point <η, mη> wherever it is unique.  It is unique when the
    # face of the numerical range in direction θ, the numerical range of m
    # compressed to the top eigenspace of H(θ), is one point: always for a
    # simple top eigenvalue, and for the repeated one of the Hermitian input
    # except where H(θ) = cos θ·m is all rounding (θ = π/2, 3π/2), and there
    # the face is the whole segment [λ_min, λ_max].
    ms = _large_sweep_inputs(d)
    thetas = np.linspace(0.0, 2 * np.pi, n_angles, endpoint=False)
    supports, etas = support_sweep(ms, n_angles)
    assert supports.shape == (len(ms), n_angles)
    assert etas.shape == (len(ms), n_angles, d)
    for m, sup, eta in zip(ms, supports, etas):
        tol = 1e-13 * np.linalg.norm(m, 2)
        for k, theta in enumerate(thetas):
            rot = np.exp(-1j * theta) * m
            h = (rot + rot.conj().T) / 2
            vals, vecs = np.linalg.eigh(h)
            assert abs(sup[k] - vals[-1]) <= tol
            assert abs(np.linalg.norm(eta[k]) - 1) <= 1e-15 * d
            assert np.linalg.norm(h @ eta[k] - sup[k] * eta[k]) <= tol
            top = vecs[:, vals >= vals[-1] - tol]
            face = top.conj().T @ m @ top
            if np.linalg.norm(face - np.trace(face) / len(face) * np.eye(len(face)), 2) <= tol:
                assert abs(np.vdot(eta[k], m @ eta[k]) - np.vdot(vecs[:, -1], m @ vecs[:, -1])) <= tol


def test_half_angle_sweep_solves_half_the_angles(monkeypatch):
    eigh = np.linalg.eigh
    stacks = []

    def spy(h, *args, **kwargs):
        stacks.append(h.shape)
        return eigh(h, *args, **kwargs)

    monkeypatch.setattr(linalg.np.linalg, "eigh", spy)
    ms = np.zeros((2, 3, 4, 4), dtype=complex)
    for n_angles in (720, 64):
        supports, etas = support_sweep(ms, n_angles)
        assert supports.shape == (2, 3, n_angles) and etas.shape == (2, 3, n_angles, 4)
        assert stacks.pop() == (2, 3, n_angles // 2, 4, 4)
    assert stacks == []


@pytest.mark.parametrize("d", [1, 2, 3])
def test_sweep_rejects_odd_angle_count(d):
    with pytest.raises(ValueError, match="even"):
        support_sweep(np.eye(d, dtype=complex), 63)
