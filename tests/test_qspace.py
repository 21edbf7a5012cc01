import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import (
    ALGEBRA_ZOO_GENERATORS,
    E12,
    SIGMA_X,
    ambient_top_projectors,
    diagonal_algebra,
    proj_ortho,
    projector_from_matrix,
    random_projector,
    top_spectral_projector,
)
from findings import literal_join, qsubset_closure
from qgelfand import qspace
from qgelfand.algebra import (
    PureState,
    State,
    StateError,
    as_pure,
    generate_algebra,
    hat,
    is_pure,
    pure_equal,
    random_pure_state,
    vector_state,
)
from qgelfand.linalg import (
    LATTICE_TOL,
    VERDICT_TOL,
    Projector,
    cluster_eigenvalues,
    haar_unit_vector,
    hermitian_eig,
    op_norm,
    orthonormalize,
    proj_join,
    proj_meet,
    sasaki_product,
)
from qgelfand.qspace import (
    QFunction,
    _in_range,
    cstar_identity_defect,
    hat_as_qfunction,
    hat_is_characteristic_defect,
    hat_preimage_qness,
    prop9_defect,
    qfunction_star,
    qfunction_star_at,
    thm3_diagnostics,
    top_projectors,
)

RNG = np.random.default_rng(11)


@pytest.fixture(scope="module")
def m2():
    return generate_algebra([E12])


@pytest.fixture(scope="module")
def m2_dec(m2):
    return m2.decomposition()


@pytest.fixture(scope="module")
def m2_full():
    """Every pure state of M2: the identity projector of its one block."""
    return Projector(basis=np.eye(2, dtype=complex))


def _pure(dec, vec, block=0):
    v = np.asarray(vec, dtype=complex)
    return PureState(block, v / np.linalg.norm(v))


def _holds(u, alpha):
    """Whether the subset with block projectors u contains the pure state."""
    return _in_range(u[alpha.block], alpha.vector)


def _blockwise(alg, a):
    """(decomposition, block images of a): the preimage probe's first two
    arguments."""
    dec = alg.decomposition()
    return dec, [blk.irrep(a) for blk in dec.blocks]


def _block_projectors(alg, p):
    """The projection p, a matrix of the algebra, as one checked projector
    per block, as the characteristic probe takes it."""
    return [projector_from_matrix(blk.irrep(p)) for blk in alg.decomposition().blocks]


def test_singleton_join_inequivalent():
    alg = diagonal_algebra(2)
    dec = alg.decomposition()
    a = PureState(0, np.ones(1))
    b = PureState(1, np.ones(1))
    u = qsubset_closure(dec, [a, b])
    assert _holds(u, a) and _holds(u, b)
    assert u[0].rank == 1


def test_singleton_join_superposition(m2_dec):
    e1 = _pure(m2_dec, [1, 0])
    e2 = _pure(m2_dec, [0, 1])
    u = qsubset_closure(m2_dec, [e1, e2])
    assert u[0].rank == 2
    assert _holds(u, _pure(m2_dec, [1, 1]))


def test_singleton_join_literal_corners(m2_dec):
    e1 = _pure(m2_dec, [1, 0])
    e2 = _pure(m2_dec, [0, 1])
    assert literal_join(e1, e2) == [e1, e2]
    assert literal_join(e1, e1) == [e1]


def _is_pure_density(dec, rho):
    try:
        return is_pure(dec, State(rho))
    except StateError:  # not Hermitian, not positive or not of unit trace
        return False


@pytest.mark.parametrize("y", [[0, 1], [1, 1j]], ids=["orthogonal", "oblique"])
def test_literal_join_off_the_corners_is_never_pure(m2_dec, y):
    # M2's block frame is the ambient one, so c1·xx* + c2·yy* is the
    # functional c1·α + c2·β.  c1 = (1 ± i)/2 has unit trace and norm and
    # fails hermiticity only
    alpha, beta = _pure(m2_dec, [1, 0]), _pure(m2_dec, y)
    x, y = alpha.vector, beta.vector
    phases = np.exp(1j * np.linspace(0, 2 * np.pi, 8, endpoint=False))
    grid = [(r * p1, np.sqrt(1 - r * r) * p2)
            for r in np.linspace(0, 1, 9)[1:-1] for p1 in phases for p2 in phases]
    for c1, c2 in grid + [((1 + 1j) / 2, (1 - 1j) / 2), ((1 - 1j) / 2, (1 + 1j) / 2)]:
        assert abs(abs(c1) ** 2 + abs(c2) ** 2 - 1) <= 1e-15
        rho = c1 * np.outer(x, x.conj()) + c2 * np.outer(y, y.conj())
        assert not _is_pure_density(m2_dec, rho), (c1, c2)
    for c1, c2 in [(1, 0), (0, 1)]:
        assert _is_pure_density(m2_dec, c1 * np.outer(x, x.conj()) + c2 * np.outer(y, y.conj()))
    assert literal_join(alpha, beta) == [alpha, beta]


def test_literal_join_of_different_blocks_keeps_both():
    # M2 ⊕ C: the vectors have lengths 2 and 1
    alpha, beta = PureState(0, np.array([1.0, 0.0])), PureState(1, np.array([1.0]))
    assert literal_join(alpha, beta) == [alpha, beta]
    assert literal_join(beta, alpha) == [beta, alpha]


def test_closure_fixed_point(m2_dec):
    seeds = [_pure(m2_dec, [1, 0]), _pure(m2_dec, [1, 1])]
    u = qsubset_closure(m2_dec, seeds)
    again = qsubset_closure(
        m2_dec, seeds + [_pure(m2_dec, [1, 2])]
    )
    assert u == again  # already the full plane
    single = qsubset_closure(m2_dec, seeds[:1])
    assert single[0].rank == 1


def test_perp_involution_and_oracle(m2_dec):
    u = qsubset_closure(m2_dec, [_pure(m2_dec, [1, 0])])
    v = [proj_ortho(u[0])]
    # oracle: e2 is the unique orthogonal vector state
    assert _holds(v, _pure(m2_dec, [0, 1]))
    assert not _holds(v, _pure(m2_dec, [1, 1]))
    assert [proj_ortho(v[0])] == u


def test_meet_join_bounds(m2_dec, m2_full):
    (p,) = qsubset_closure(m2_dec, [_pure(m2_dec, [1, 0])])
    (q,) = qsubset_closure(m2_dec, [_pure(m2_dec, [1, 1])])
    assert proj_meet(p, q).rank == 0
    assert proj_join(p, q).rank == 2
    assert proj_meet(p, m2_full) == p
    assert proj_join(p, Projector(basis=np.zeros((2, 0), dtype=complex))) == p


def test_subspace_order_isomorphism():
    # the product of characteristic functions is the characteristic function
    # of the projectors' Sasaki product
    for _ in range(10):
        p = random_projector(4, 2, RNG)
        q = random_projector(4, int(RNG.integers(1, 4)), RNG)
        prod = qfunction_star(QFunction([(1.0, p)]), QFunction([(1.0, q)]))
        assert prod.terms == [(1.0, sasaki_product(p, q))]


def test_qfunction_star_pointwise_commutative():
    alg = diagonal_algebra(3)
    dec = alg.decomposition()
    points = [PureState(i, np.ones(1)) for i in range(3)]
    u = qsubset_closure(dec, points[:2])
    v = qsubset_closure(dec, points[1:])
    for p in points:  # each point is the one state of its block
        f = QFunction([(2.0, u[p.block])])
        g = QFunction([(3.0 + 1j, v[p.block])])
        prod = qfunction_star(f, g)
        assert prod.evaluate(p.vector) == pytest.approx(
            f.evaluate(p.vector) * g.evaluate(p.vector))


def test_qfunction_star_sasaki_witness(m2_dec):
    (u,) = qsubset_closure(m2_dec, [_pure(m2_dec, [1, 0])])
    (v,) = qsubset_closure(m2_dec, [_pure(m2_dec, [1, 1])])
    prod = qfunction_star(QFunction([(1.0, u)]), QFunction([(1.0, v)]))
    assert len(prod.terms) == 1
    _, w = prod.terms[0]
    assert w == u
    rev = qfunction_star(QFunction([(1.0, v)]), QFunction([(1.0, u)]))
    assert rev.terms[0][1] == v


def test_star_with_full_is_identity(m2_dec, m2_full):
    (u,) = qsubset_closure(m2_dec, [_pure(m2_dec, [1, 2j])])
    f = QFunction([(0.5, u)])
    prod = qfunction_star(f, QFunction([(1.0, m2_full)]))
    assert prod.terms[0][1] == u
    assert prod.terms[0][0] == 0.5


def test_sup_norm_exact(m2_dec, m2_full):
    (u,) = qsubset_closure(m2_dec, [_pure(m2_dec, [1, 0])])
    (v,) = qsubset_closure(m2_dec, [_pure(m2_dec, [0, 1])])
    # disjoint rank-1 subsets: sup of |2 chi_u + 3 chi_v| is 3
    f = QFunction([(2.0 + 0j, u), (3.0 + 0j, v)])
    assert f.sup_norm() == pytest.approx(3.0)
    # nested: u inside the full set, values add on u
    g = QFunction([(2.0 + 0j, u), (3.0 + 0j, m2_full)])
    assert g.sup_norm() == pytest.approx(5.0)
    # sampled lower bound never exceeds the exact sup
    best = 0.0
    for _ in range(500):
        x = RNG.standard_normal(2) + 1j * RNG.standard_normal(2)
        best = max(best, abs(g.evaluate(_pure(m2_dec, x).vector)))
    assert best <= g.sup_norm() + 1e-9


def test_cstar_identity_commutative():
    alg = diagonal_algebra(3)
    dec = alg.decomposition()
    points = [PureState(i, np.ones(1)) for i in range(3)]
    u, v = qsubset_closure(dec, points[:2]), qsubset_closure(dec, points[2:])
    rep = cstar_identity_defect([QFunction([(1.0 + 2j, p), (0.5 - 1j, q)])
                                 for p, q in zip(u, v)])
    assert rep.verdict == "holds-within-tol"
    assert rep.defects["defect"] < 1e-9


def test_cstar_identity_full_char(m2_dec, m2_full):
    rep = cstar_identity_defect([QFunction([(1.0, m2_full)])])
    assert rep.defects["defect"] < 1e-12


def test_cstar_identity_m2_probe(m2_dec):
    # falsification probe: value reported, reproducible, no value asserted
    (u,) = qsubset_closure(m2_dec, [_pure(m2_dec, [1, 0])])
    (v,) = qsubset_closure(m2_dec, [_pure(m2_dec, [1, 1])])
    f = QFunction([(1.0 + 0j, u), (1j, v)])
    r1 = cstar_identity_defect([f])
    r2 = cstar_identity_defect([f])
    assert r1.defects == r2.defects


def test_prop9_commutative_pure():
    alg = diagonal_algebra(3)
    a = alg.random_element(RNG, hermitian=True)
    b = alg.random_element(RNG, hermitian=True)
    state = PureState(0, np.ones(1))
    rep = prop9_defect(alg, state, a, b)
    assert rep.verdict == "holds-within-tol"
    assert max(rep.defects.values()) < 1e-12


def test_prop9_pauli_defect(m2, m2_dec):
    e1 = as_pure(m2_dec, vector_state(np.array([1.0, 0.0])))
    rep = prop9_defect(m2, e1, SIGMA_X, SIGMA_X)
    assert abs(rep.defects["square"] - 1.0) < 1e-12
    assert rep.verdict == "fails"


def _oracle_algebra(algebra_zoo, name):
    return generate_algebra([np.kron(E12, np.eye(2))]) if name == "E12xI2" else algebra_zoo[name]


@pytest.mark.parametrize("name", [*ALGEBRA_ZOO_GENERATORS, "E12xI2"])
def test_top_projectors_match_ambient_route(algebra_zoo, name):
    # the ambient route the claims suites took: the n×n spectral projection
    # at h's top cluster, compressed to each block and read back through
    # projector_from_matrix's checks.  The identity is all top cluster, and
    # a block's central projection leaves the other blocks rank 0
    alg = _oracle_algebra(algebra_zoo, name)
    dec = alg.decomposition()
    rng = np.random.default_rng(28)
    hs = [np.eye(alg.ambient_dim), dec.blocks[0].central_projector]
    hs += [alg.random_element(rng, hermitian=True) for _ in range(20)]
    for h in hs:
        got, ref = top_projectors(dec, h), ambient_top_projectors(dec, h)
        assert len(got) == len(ref) == dec.n_blocks
        for p, q in zip(got, ref):
            assert p.rank == q.rank and p == q


@pytest.mark.parametrize("name", [*ALGEBRA_ZOO_GENERATORS, "E12xI2"])
def test_prop9_matches_ambient_route(algebra_zoo, name):
    # the meet and characteristic defects as the ambient route gave them:
    # meets in every block, embedded back into the algebra and read by hat
    alg = _oracle_algebra(algebra_zoo, name)
    dec = alg.decomposition()
    rng = np.random.default_rng(29)
    for _ in range(10):
        a = alg.random_element(rng, hermitian=True)
        b = alg.random_element(rng, hermitian=True)
        alpha = random_pure_state(dec, rng)
        meets = [proj_meet(p, q) for p, q in zip(*(ambient_top_projectors(dec, h)
                                                   for h in (a, b)))]
        meet = sum(blk.embed(m.matrix) for blk, m in zip(dec.blocks, meets))
        ps = [top_spectral_projector(h) for h in (a, b)]
        chi = 1.0 if _holds(meets, alpha) else 0.0
        char = max(min(abs(hat(alg, p, alpha)), abs(1 - hat(alg, p, alpha))) for p in ps)
        rep = prop9_defect(alg, alpha, a, b)
        assert rep.witnesses == [alpha]
        assert abs(rep.defects["lattice_meet"] - abs(hat(alg, meet, alpha) - chi)) <= 1e-12
        assert abs(rep.defects["characteristic"] - char) <= 1e-12


def test_characteristic_defect(m2, m2_dec):
    p = np.array([[1.0, 0], [0, 0]], dtype=complex)
    rep = hat_is_characteristic_defect(m2_dec, _block_projectors(m2, p), 10_000,
                                       np.random.default_rng(0))
    assert rep.defects["defect"] >= 0.49
    rep_id = hat_is_characteristic_defect(m2_dec, _block_projectors(m2, np.eye(2)), 100,
                                          np.random.default_rng(0))
    assert rep_id.defects["defect"] < 1e-12
    alg = diagonal_algebra(3)
    rep_c = hat_is_characteristic_defect(alg.decomposition(),
                                         _block_projectors(alg, np.diag([1.0, 1.0, 0.0])),
                                         200, np.random.default_rng(0))
    assert rep_c.defects["defect"] < 1e-12


def test_thm3_commutative_dims():
    for n in range(2, 6):
        rep = thm3_diagnostics(diagonal_algebra(n), 30, np.random.default_rng(n))
        assert rep.verdict == "holds-within-tol", n
        assert rep.defects["homomorphism_defect"] <= 1e-10


def test_thm3_m2(m2):
    rep = thm3_diagnostics(m2, 20, np.random.default_rng(1))
    assert rep.defects["injective"]
    assert rep.defects["separation"]
    assert rep.defects["homomorphism_defect"] > 1e-3
    assert rep.verdict == "fails"


def test_preimage_qness(m2):
    p = np.array([[1.0, 0], [0, 0]], dtype=complex)
    rep = hat_preimage_qness(*_blockwise(m2, p), 1.0, 0.1, 3000, np.random.default_rng(2))
    assert rep.verdict == "fails"
    assert rep.defects["violation"] > 0.1
    assert rep.witnesses  # reproducible witness state
    # constant function: preimage of a region containing 1 is everything
    rep_id = hat_preimage_qness(*_blockwise(m2, np.eye(2)), 1.0, 0.1, 500,
                                np.random.default_rng(2))
    assert rep_id.verdict == "holds-within-tol"
    # commutative: no equivalent pairs, vacuous
    rep_c = hat_preimage_qness(*_blockwise(diagonal_algebra(3), np.diag([1.0, 0, 0])),
                               1.0, 0.1, 200, np.random.default_rng(2))
    assert rep_c.verdict == "holds-within-tol"


def test_claims_report_serializable(m2):
    import json

    p = np.array([[1.0, 0], [0, 0]], dtype=complex)
    rep = hat_preimage_qness(*_blockwise(m2, p), 1.0, 0.1, 500, np.random.default_rng(3))
    text = json.dumps(rep.to_json(), sort_keys=True)
    assert "hat_preimage_qness" in text


def _preimage_sweep_reference(alg, a, center, radius, samples, rng):
    """The per-pair, per-angle loop that hat_preimage_qness stacks, with
    per-pair orthonormalize and per-angle eigh: returns (worst violation,
    the pairs (i, j) of preimage samples checked, witness or None, every
    (violation, candidate witness) in (pair, angle) order)."""
    dec = alg.decomposition()
    inside = []
    for _ in range(samples):
        s = random_pure_state(dec, rng)
        if abs(hat(alg, a, s) - center) <= radius:
            inside.append(s)
    sweep, pairs = [], []
    for (i, s), (j, t) in itertools.combinations(enumerate(inside), 2):
        if s.block != t.block or pure_equal(s, t):
            continue
        pairs.append((i, j))
        w = orthonormalize(np.stack([s.vector, t.vector])).T
        if w.shape[1] < 2:
            continue
        m = w.conj().T @ dec.blocks[s.block].irrep(a) @ w
        for theta in np.linspace(0, 2 * np.pi, 64, endpoint=False):
            hm = (np.exp(-1j * theta) * m + (np.exp(-1j * theta) * m).conj().T) / 2
            vals, vecs = np.linalg.eigh(hm)
            eta = vecs[:, -1]
            z = complex(np.vdot(eta, m @ eta))
            sweep.append((abs(z - center) - radius, PureState(s.block, w @ eta)))
        if len(pairs) >= 200:
            break
    worst = max([0.0] + [v for v, _ in sweep])
    # violations within LATTICE_TOL of the largest tie; the first one wins
    witness = next((c for v, c in sweep if v >= worst - LATTICE_TOL), None) if worst > 0 else None
    return worst, pairs, witness, sweep


def _equal_up_to_phase(u, v):
    phase = np.vdot(v, u)
    return abs(abs(phase) - 1) <= 1e-12 and np.max(np.abs(u - phase / abs(phase) * v)) <= 1e-12


def _first_match(sweep, state):
    """Index of the first candidate of the loop's sweep that is state, up to
    the phase of its vector: the (pair, angle) the probe's witness came from."""
    return next(n for n, (_, c) in enumerate(sweep)
                if c.block == state.block and _equal_up_to_phase(state.vector, c.vector))


@pytest.fixture()
def joined(monkeypatch):
    """The (i's, j's) arrays of preimage-sample pairs the probe selects."""
    calls = []
    select = qspace._join_pairs

    def record(*args):
        calls.append(select(*args))
        return calls[-1]

    monkeypatch.setattr(qspace, "_join_pairs", record)
    return calls


def _preimage_case(name, rng):
    """(algebra, element, centre, radius, samples) of one oracle case."""
    m3_gen = np.zeros((3, 3), dtype=complex)
    m3_gen[0, 1] = m3_gen[1, 2] = 1.0
    if name == "M2":  # about 36 of 60 samples land: more than 200 pairs
        alg = generate_algebra([E12])
        return alg, np.diag([1.0, 0.0]).astype(complex), 1.0, 0.6, 60
    if name == "M3":  # rank-1 projector: the violations tie exactly
        alg = generate_algebra([m3_gen])
        return alg, np.diag([1.0, 0.0, 0.0]).astype(complex), 1.0, 0.6, 60
    if name == "E12xI2":
        alg = generate_algebra([np.kron(E12, np.eye(2))])
        return alg, np.kron(np.diag([1.0, 0.0]), np.eye(2)).astype(complex), 1.0, 0.6, 40
    if name == "rand_M2xI2":  # a non-normal element, a disc off the real axis
        g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        u, _ = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
        alg = generate_algebra([u @ np.kron(g, np.eye(2)) @ u.conj().T])
        return alg, alg.random_element(rng), 0.3 - 0.2j, 0.8, 30
    if name == "rand_M2xI2_proj":
        alg, _, _, _, _ = _preimage_case("rand_M2xI2", rng)
        p = top_spectral_projector(alg.random_element(rng, hermitian=True))
        return alg, p, 1.0, 0.6, 40
    assert name == "C3"  # one-dimensional blocks: no same-block pairs
    return diagonal_algebra(3), np.diag([1.0, 0.0, 0.0]).astype(complex), 1.0, 0.1, 30


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("name", ["M2", "M3", "E12xI2", "rand_M2xI2", "rand_M2xI2_proj", "C3"])
def test_preimage_sweep_matches_per_angle_loop(joined, name, seed):
    # the stacked pass checks the loop's pairs; the closed-form sweep gives
    # the loop's violation to within 8 ulps, and its witness is the loop's
    # first near-tie (same pair and angle), up to the phase of η
    alg, a, center, radius, samples = _preimage_case(name, np.random.default_rng([seed, 99]))
    worst, pairs, witness, sweep = _preimage_sweep_reference(
        alg, a, center, radius, samples, np.random.default_rng(seed))
    rep = hat_preimage_qness(*_blockwise(alg, a), center, radius, samples,
                             np.random.default_rng(seed))
    (selected,) = joined
    assert list(zip(*(ix.tolist() for ix in selected))) == pairs
    assert rep.defects["pairs_checked"] == len(pairs)
    if name == "M2":
        assert len(pairs) == 200  # the cap cut the sweep
    if name == "C3":
        assert pairs == [] and rep.witnesses == []
        return
    assert abs(rep.defects["violation"] - worst) <= 8 * np.spacing(worst)
    if witness is None:
        assert rep.witnesses == []
        return
    (got,) = rep.witnesses
    assert sweep[_first_match(sweep, got)][1] is witness


def test_preimage_witness_is_first_near_tie():
    # on M3, a = diag(1, 1e-9, 0) gives each joined pair its own violation
    # 0.4 − λ_min, with λ_min of the compressed pair in [0, 1e-9]: the
    # violations differ by about 1e-10, inside LATTICE_TOL and far above
    # rounding, so on every BLAS kernel the first in sweep order lies below
    # the largest, which comes later.  The report keeps the largest value
    # and takes the first as its witness
    alg, _, center, radius, samples = _preimage_case("M3", np.random.default_rng([0, 99]))
    a = np.diag([1.0, 1e-9, 0.0]).astype(complex)
    worst, _, _, sweep = _preimage_sweep_reference(
        alg, a, center, radius, samples, np.random.default_rng(0))
    viols = np.array([v for v, _ in sweep])
    first, largest = int(np.argmax(viols >= worst - LATTICE_TOL)), int(np.argmax(viols))
    assert first < largest and viols[largest] == worst
    assert 0 < worst - viols[first] <= LATTICE_TOL
    rep = hat_preimage_qness(*_blockwise(alg, a), center, radius, samples,
                             np.random.default_rng(0))
    assert abs(rep.defects["violation"] - worst) <= 8 * np.spacing(worst)
    (got,) = rep.witnesses
    assert _first_match(sweep, got) == first


def test_preimage_pair_selection_is_lazy(joined):
    # at 5000 samples about 3000 land in the preimage: all pairs would be
    # some 4.5 million, 70 MB as two index arrays, and a k×k boolean mask
    # alone is 9 MB.  The row-by-row selection finds the loop's first 200
    # with a peak under 6 MB for the whole probe, samples included
    alg, a, center, radius, _ = _preimage_case("M2", np.random.default_rng(0))
    tracemalloc.start()
    try:
        rep = hat_preimage_qness(*_blockwise(alg, a), center, radius, 5000,
                                 np.random.default_rng(3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6_000_000
    assert rep.defects["pairs_checked"] == 200
    ref_rng = np.random.default_rng(3)
    dec = alg.decomposition()
    inside = [s for s in (random_pure_state(dec, ref_rng) for _ in range(5000))
              if abs(hat(alg, a, s) - center) <= radius]
    assert rep.defects["preimage_size"] == len(inside)
    pairs = itertools.islice(
        ((i, j) for (i, s), (j, t) in itertools.combinations(enumerate(inside), 2)
         if s.block == t.block and not pure_equal(s, t)), 200)
    (selected,) = joined
    assert list(zip(*(ix.tolist() for ix in selected))) == list(pairs)


def test_thm3_separation_values_are_hat(star_algebras):
    # the separation probe evaluates every basis element at a state through
    # PureState.value on the block's stacked images; each value is hat's
    rng = np.random.default_rng(5)
    for alg in star_algebras.values():
        dec = alg.decomposition()
        images = [blk.irrep(alg.basis) for blk in dec.blocks]
        for _ in range(10):
            s = random_pure_state(dec, rng)
            assert len(images[s.block]) == alg.dim
            for b, x in zip(alg.basis, images[s.block]):
                assert abs(s.value(x) - hat(alg, b, s)) <= 1e-14


@pytest.fixture()
def drawn(monkeypatch):
    """The pure states the qspace probes sample, in draw order."""
    states = []

    def record(dec, rng):
        states.append(random_pure_state(dec, rng))
        return states[-1]

    monkeypatch.setattr(qspace, "random_pure_state", record)
    return states


@pytest.mark.parametrize("name", ["M2", "M3", "E12xI2", "rand_M2xI2", "rand_M2xI2_proj"])
def test_preimage_samples_evaluate_hat(drawn, name):
    # the probe evaluates samples on the element's block images, not through
    # hat; radii equal to sampled distances put states exactly on the disc
    # boundary, so membership is decided by the last bit of each value
    alg, a, center, _, samples = _preimage_case(name, np.random.default_rng(7))
    hat_preimage_qness(*_blockwise(alg, a), center, 1.0, samples, np.random.default_rng(1))
    dists = sorted(abs(hat(alg, a, s) - center) for s in drawn)
    for radius in dists[::7]:
        rep = hat_preimage_qness(*_blockwise(alg, a), center, radius, samples,
                                 np.random.default_rng(1))
        assert rep.defects["preimage_size"] == sum(d <= radius for d in dists)


@pytest.mark.parametrize("name", ["M2", "M3", "E12xI2", "rand_M2xI2_proj"])
def test_characteristic_samples_evaluate_hat(drawn, name):
    # the probe evaluates each sample on its block's projector; each value
    # is hat's on the projection, up to the rounding in which the checked
    # projector's matrix differs from the block image
    alg, p, _, _, _ = _preimage_case(name, np.random.default_rng(7))
    blocks = _block_projectors(alg, p)
    rep = hat_is_characteristic_defect(alg.decomposition(), blocks, 300,
                                       np.random.default_rng(2))
    values = [s.value(blocks[s.block].matrix) for s in drawn]
    assert max(abs(v - hat(alg, p, s)) for v, s in zip(values, drawn)) <= 1e-12
    defects = [min(abs(v), abs(1 - v)) for v in values]
    assert rep.defects["defect"] == max(defects)
    assert rep.witnesses[0] is drawn[int(np.argmax(defects))]


@pytest.fixture(scope="module")
def star_algebras():
    m2c_gen = np.zeros((3, 3), dtype=complex)
    m2c_gen[0, 1] = 1.0
    return {
        "C3": diagonal_algebra(3),
        "M2": generate_algebra([E12]),
        "M2+C": generate_algebra([m2c_gen]),
        "E12xI2": generate_algebra([np.kron(E12, np.eye(2))]),
    }


@given(name=st.sampled_from(["C3", "M2", "M2+C", "E12xI2"]),
       seed=st.integers(0, 2**32 - 1),
       hermitian=st.booleans(), one_block=st.booleans(), on_term=st.booleans())
def test_qfunction_star_at_matches_full_product(star_algebras, name, seed, hermitian,
                                                one_block, on_term):
    alg = star_algebras[name]
    dec = alg.decomposition()
    rng = np.random.default_rng(seed)
    a = alg.random_element(rng, hermitian=hermitian)
    b = alg.random_element(rng)
    i = int(rng.integers(dec.n_blocks))
    if one_block:  # â is zero off block i, and so is its model
        blk = dec.blocks[i]
        a = blk.embed(blk.irrep(a))
    alpha = random_pure_state(dec, rng)
    terms = hat_as_qfunction(alg, a, i).terms
    if on_term and terms:  # a state inside one of â's terms, so products can hold it
        _, p = terms[int(rng.integers(len(terms)))]
        alpha = PureState(i, p.basis[:, 0])
    f, g = hat_as_qfunction(alg, a, alpha.block), hat_as_qfunction(alg, b, alpha.block)
    v = alpha.vector
    assert qfunction_star_at(f, g, v) == qfunction_star(f, g).evaluate(v)


@pytest.mark.parametrize("name, dims", [("M2+C", [2, 1]), ("C3", [1, 1, 1])])
def test_thm3_hat_model_solves_only_the_sampled_block(star_algebras, monkeypatch, name, dims):
    alg = star_algebras[name]
    assert [blk.irrep_dim for blk in alg.decomposition().blocks] == dims
    # per hat_as_qfunction call: its block, hermitian_eig's input shapes,
    # the state drawn last before it and the terms it built
    calls = []
    states = []
    inside = []
    build, eig, draw = qspace.hat_as_qfunction, qspace.hermitian_eig, qspace.random_pure_state

    def draw_spy(dec, rng):
        states.append(draw(dec, rng))
        return states[-1]

    def hat_spy(alg, a, block):
        call = {"block": block, "shapes": [], "state": states[-1]}
        calls.append(call)
        inside.append(True)
        try:
            f = build(alg, a, block)
        finally:
            inside.pop()
        call["terms"] = f.terms
        return f

    def eig_spy(m):
        if inside:
            calls[-1]["shapes"].append(m.shape)
        return eig(m)

    monkeypatch.setattr(qspace, "random_pure_state", draw_spy)
    monkeypatch.setattr(qspace, "hat_as_qfunction", hat_spy)
    monkeypatch.setattr(qspace, "hermitian_eig", eig_spy)
    thm3_diagnostics(alg, 20, np.random.default_rng(3))
    # â is built once per homomorphism sample, the first build for its state
    hat_a = [c for k, c in enumerate(calls) if k == 0 or c["state"] is not calls[k - 1]["state"]]
    assert len(hat_a) == 20

    def near(c):
        v = c["state"].vector
        return any(np.linalg.norm(p.matrix @ v - v) <= 2e3 * LATTICE_TOL for _, p in c["terms"])

    # b̂ only right after an â with a term near the state: a Haar state of a
    # two-dimensional block lies near no eigenspace, one of a
    # one-dimensional block in every term
    nears = [near(c) for c in hat_a]
    assert nears == [dims[c["block"]] == 1 for c in hat_a]
    assert len(calls) == 20 + sum(nears)
    assert [id(c["state"]) for c in calls] == [
        id(c["state"]) for c, n in zip(hat_a, nears) for _ in range(1 + n)]
    for c in calls:
        # a random element has a Hermitian and an anti-Hermitian part
        assert c["shapes"] == [(dims[c["block"]], dims[c["block"]])] * 2
    assert {c["block"] for c in calls} == set(range(len(dims)))


def _conjugated_c3(rng):
    # C^3 in a random orthonormal basis: commutative, three blocks of dimension 1
    u, _ = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
    return generate_algebra([u @ np.diag([1.0, 2.3, 3.1]) @ u.conj().T])


@pytest.mark.parametrize("name", ["C2", "C3", "CI2", "rand_C3", "M2+C"])
def test_thm3_forms_no_sasaki_product_in_one_dimensional_blocks(star_algebras, monkeypatch, name):
    # a near term of a one-dimensional block is the identity of C, so every
    # product there is that term and holds the state: thm3 adds the
    # coefficients without forming it, and forms products only in M2+C's M2
    # block (where a Haar state is near no term, so none at all here)
    alg = {"C2": lambda: diagonal_algebra(2), "C3": lambda: star_algebras["C3"],
           "CI2": lambda: generate_algebra([np.eye(2, dtype=complex)]),
           "rand_C3": lambda: _conjugated_c3(np.random.default_rng(23)),
           "M2+C": lambda: star_algebras["M2+C"]}[name]()
    dims = []
    at = []
    product, star_at = qspace.sasaki_product, qspace.qfunction_star_at

    def product_spy(p, q):
        dims.append(p.dim)
        return product(p, q)

    def star_at_spy(f, g, v):
        at.append(len(v))
        return star_at(f, g, v)

    monkeypatch.setattr(qspace, "sasaki_product", product_spy)
    monkeypatch.setattr(qspace, "qfunction_star_at", star_at_spy)
    rep = thm3_diagnostics(alg, 20, np.random.default_rng(3))
    assert rep.verdict == "holds-within-tol" or name == "M2+C"
    assert set(dims) <= {2}
    assert dims == [] or name == "M2+C"
    # the model was evaluated, in one-dimensional blocks only
    assert at and set(at) == {1}


def test_qfunction_star_at_forms_products_in_two_dimensional_blocks(star_algebras, monkeypatch):
    # the shortcut is for one-dimensional blocks only: a state on a term of
    # M2+C's M2 block still takes the Sasaki products
    alg = star_algebras["M2+C"]
    dec = alg.decomposition()
    rng = np.random.default_rng(8)
    a, b = alg.random_element(rng), alg.random_element(rng)
    dims = []
    product = qspace.sasaki_product
    for i in range(dec.n_blocks):
        f, g = hat_as_qfunction(alg, a, i), hat_as_qfunction(alg, b, i)
        full = qfunction_star(f, g)
        monkeypatch.setattr(qspace, "sasaki_product",
                            lambda p, q: dims.append(p.dim) or product(p, q))
        for _, p in f.terms:
            v = p.basis[:, 0]
            assert qfunction_star_at(f, g, v) == full.evaluate(v)
        monkeypatch.setattr(qspace, "sasaki_product", product)
    assert 2 in dims and 1 not in dims
    assert [blk.irrep_dim for blk in dec.blocks] == [2, 1]


# residual of α from the f-term's range, in units of _in_range's 1e3·LATTICE_TOL:
# inside, on and past that slack, up to and past the prune's 2·1e3·LATTICE_TOL
_PRUNE_BAND = [0, 0.5, 1, 1.5, 1.99, 2.5, 4]


@pytest.mark.parametrize("name", ["C3", "M2", "M2+C", "E12xI2"])
@pytest.mark.parametrize("hermitian", [True, False])
def test_qfunction_star_at_prune_keeps_every_term_in_range_can_accept(
        star_algebras, name, hermitian):
    alg = star_algebras[name]
    dec = alg.decomposition()
    rng = np.random.default_rng(22)
    a = alg.random_element(rng, hermitian=hermitian)
    b = alg.random_element(rng)
    values = {}
    for i in range(dec.n_blocks):
        f, g = hat_as_qfunction(alg, a, i), hat_as_qfunction(alg, b, i)
        full = qfunction_star(f, g)
        for t, (_, p) in enumerate(f.terms):
            x = p.basis @ haar_unit_vector(p.rank, rng)  # a unit vector of range(p)
            # a unit vector orthogonal to range(p) in the block, if there is one
            w = orthonormalize(np.column_stack([p.basis, np.eye(p.dim)]).T)[p.rank:]
            band = _PRUNE_BAND if len(w) else [0]
            for d in band:
                sin = d * 1e3 * LATTICE_TOL
                alpha = PureState(i, np.sqrt(1 - sin**2) * x + sin * (w[0] if len(w) else 0))
                assert np.linalg.norm(p.matrix @ alpha.vector - alpha.vector) == pytest.approx(
                    sin, rel=1e-6, abs=1e-15)
                values[t, i, d] = qfunction_star_at(f, g, alpha.vector)
                assert values[t, i, d] == full.evaluate(alpha.vector)
    # the band reaches states the products hold, so the check is not vacuous,
    # and runs whole wherever a block has room off a term's range
    assert any(v != 0 for v in values.values())
    assert (any(d == _PRUNE_BAND[-1] for _, _, d in values)
            == any(blk.irrep_dim > 1 for blk in dec.blocks))


def _hat_terms_with_norm_skip(alg, a):
    """hat_as_qfunction's terms as built while it skipped a Hermitian part
    of operator norm at most VERDICT_TOL before its eigenvalue rule."""
    dec = alg.decomposition()
    h, k = (a + a.conj().T) / 2, (a - a.conj().T) / (2j)
    terms = []
    for part, scale in ((h, 1.0), (k, 1j)):
        if op_norm(part) <= VERDICT_TOL:
            continue
        for i, blk in enumerate(dec.blocks):
            vals, vecs = hermitian_eig(blk.irrep(part))
            for idx in cluster_eigenvalues(vals):
                lam = float(np.mean(vals[idx]))
                if abs(lam) > VERDICT_TOL:
                    terms.append((scale * lam, i, vecs[:, idx]))
    return terms


@pytest.mark.parametrize("skew", [0.0, 1e-12])
@pytest.mark.parametrize("name", ["C3", "M2", "M2+C", "E12xI2"])
def test_hat_terms_need_no_norm_skip(star_algebras, name, skew):
    # a Hermitian element, and one whose skew part is about 1e-12: the
    # eigenvalue rule alone drops the negligible part's terms
    alg = star_algebras[name]
    rng = np.random.default_rng(17)
    a = alg.random_element(rng, hermitian=True) + 1j * skew * alg.random_element(rng, hermitian=True)
    want = _hat_terms_with_norm_skip(alg, a)
    assert want
    for i in range(alg.decomposition().n_blocks):
        got = hat_as_qfunction(alg, a, i).terms
        want_i = [(c, basis) for c, j, basis in want if j == i]
        assert len(got) == len(want_i)
        for (c, p), (c_ref, basis) in zip(got, want_i):
            assert c == c_ref
            assert np.array_equal(p.basis, basis)
