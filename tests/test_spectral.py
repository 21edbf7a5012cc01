import json

import numpy as np
import pytest

import qgelfand.spectral as spectral

from conftest import E12, SIGMA_X
from qgelfand.algebra import generate_algebra
from qgelfand.linalg import (
    ldexp_complex,
    op_norm,
    projector_from_basis,
    support_sweep,
)
from qgelfand.spectral import (
    THETAS,
    NotCyclicError,
    _judged,
    _sigma_fiber,
    cyclic_decompose,
    fc_unitary,
    invariant_subspace,
    sigma_big,
    spectrum,
    _modeled_result,
)

RNG = np.random.default_rng(5)


def test_spectrum_examples():
    assert np.allclose(spectrum(np.diag([2.0, 1.0])), [1.0, 2.0])
    assert np.allclose(spectrum(E12), [0.0, 0.0])  # nilpotent
    assert np.allclose(spectrum(SIGMA_X), [-1.0, 1.0])
    with pytest.raises(ValueError):
        spectrum(np.zeros((2, 3)))


def test_spectrum_ordering_deterministic():
    a = np.diag([1.0 + 1j, 1.0 - 1j, 0.0])
    vals = spectrum(a)
    assert vals[0] == 0.0
    assert vals[1].imag < vals[2].imag  # ties in re broken by im


def test_sigma_big_normal_equals_spectrum():
    rep = sigma_big(np.diag([1.0, 2.0]))
    assert rep.sigma_equals_big
    assert not rep.sigma_singleton
    # every boundary point is an eigenvalue
    for b in rep.block_boundaries:
        for z in b:
            assert min(abs(rep.sigma - z)) < 1e-8


def test_sigma_big_identity_singleton():
    rep = sigma_big(np.eye(3))
    assert rep.sigma_singleton and rep.sigma_equals_big


def test_sigma_big_e12_disc():
    rep = sigma_big(E12)
    boundary = np.concatenate(rep.block_boundaries)
    # oracle: the numerical range of E12 is the closed disc of radius 1/2
    assert np.max(np.abs(boundary)) == pytest.approx(0.5, abs=1e-9)
    assert rep.contains(0.45j) and not rep.contains(0.55)
    assert not rep.sigma_equals_big


def test_sigma_contains_default_slack_is_relative():
    # Σ(1e-8·E12) is the disc of radius 5e-9; an absolute 1e-6 slack
    # accepted 1e-7 and 5e-7j
    rep = sigma_big(1e-8 * E12)
    assert rep.contains(4e-9j)
    assert not rep.contains(1e-7) and not rep.contains(5e-7j)


@pytest.mark.parametrize("c", [1e-8, 1.0, 1e8])
def test_sigma_contains_default_is_scale_invariant(c):
    # Σ(E12) is the disc of radius 1/2
    points = [0, 0.45j, 0.3 - 0.3j, 0.49, 0.51, 0.55, 0.6j, 1 + 1j]
    rep = sigma_big(c * E12)
    assert [rep.contains(c * z) for z in points] == [abs(z) < 0.5 for z in points]


def test_sigma_contains_eigenvalues_random():
    for _ in range(20):
        n = int(RNG.integers(2, 6))
        a = RNG.standard_normal((n, n)) + 1j * RNG.standard_normal((n, n))
        rep = sigma_big(a)
        for lam in rep.sigma:
            assert rep.contains(lam, 1e-6)


def test_cyclic_decompose_examples():
    cd = cyclic_decompose(generate_algebra([np.eye(2)]))
    assert [p.rank for p, _ in cd.pieces] == [1, 1]
    cd = cyclic_decompose(generate_algebra([E12]))
    assert [p.rank for p, _ in cd.pieces] == [2]
    cd = cyclic_decompose(generate_algebra([np.diag([1.0, 2.0])]))
    assert [p.rank for p, _ in cd.pieces] == [1, 1]


def test_cyclic_decompose_certificates():
    a = RNG.standard_normal((5, 5)) + 1j * RNG.standard_normal((5, 5))
    cd = cyclic_decompose(generate_algebra([a]))
    assert cd.orthogonality_defect < 1e-8
    assert cd.completeness_defect < 1e-8
    # each piece really is the orbit closure of its cyclic vector
    from qgelfand.spectral import orbit_basis

    for p, h in cd.pieces:
        assert orbit_basis(cd.algebra, h).shape[1] == p.rank


def test_fc_unitary_diagonal():
    h = np.array([1.0, 1.0]) / np.sqrt(2)
    rep = fc_unitary(generate_algebra([np.diag([1.0, 2.0])]), h)
    assert rep.representation.dim == 2
    assert rep.unitarity_defect < 1e-10
    assert rep.intertwining_defect < 1e-10


def test_fc_unitary_e12():
    rep = fc_unitary(generate_algebra([E12]), np.array([1.0, 0.0]))
    assert rep.representation.dim == 2
    assert rep.intertwining_defect < 1e-10


def test_fc_unitary_identity_not_cyclic():
    with pytest.raises(NotCyclicError) as exc:
        fc_unitary(generate_algebra([np.eye(2)]), np.array([1.0, 0.0]))
    assert exc.value.achieved == 1 and exc.value.ambient == 2


def test_fc_unitary_not_cyclic_diagonal():
    with pytest.raises(NotCyclicError):
        fc_unitary(generate_algebra([np.diag([1.0, 2.0])]), np.array([1.0, 0.0]))


def test_invariant_subspace_scalar():
    results = invariant_subspace(3 * np.eye(3), mode="both")
    paper, oracle = results
    assert paper.case_tag == "scalar-case"
    assert paper.verdict == "nontrivial"
    assert paper.invariance_defect < 1e-12
    assert oracle.case_tag == "oracle"
    assert oracle.invariance_defect < 1e-12


def test_invariant_subspace_out_of_dichotomy():
    paper = invariant_subspace(np.diag([1.0, 2.0]), mode="paper")[0]
    assert paper.case_tag == "out-of-dichotomy"
    assert paper.projector is None


def test_invariant_subspace_split_case():
    # E12's sigma fiber {x : <x, E12 x> = 0} holds e1 and e2: its span is C^2
    paper = invariant_subspace(E12, mode="paper")[0]
    assert paper.case_tag == "sigma-split-case"
    assert (paper.verdict, paper.dims, paper.witness) == ("trivial", (2, 2), None)
    assert paper.invariance_defect is not None  # defect reported, not asserted


def test_invariant_subspace_oracle_random():
    rng = np.random.default_rng(42)
    for _ in range(30):
        n = int(rng.integers(2, 7))
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        res = invariant_subspace(a, mode="oracle")[0]
        assert res.verdict == "nontrivial"
        assert 0 < res.dims[0] < n
        assert res.invariance_defect <= 1e-10


def test_invariance_defect_oracle():
    # span{e1} is invariant for upper-triangular matrices
    a = np.array([[1.0, 5.0], [0.0, 2.0]], dtype=complex)
    p = projector_from_basis(np.array([[1.0], [0.0]]))
    assert _judged(a, p, "oracle", "eigenvector-oracle", {}).invariance_defect < 1e-12
    q = projector_from_basis(np.array([[0.0], [1.0]]))
    assert _judged(a, q, "oracle", "eigenvector-oracle", {}).invariance_defect == pytest.approx(5.0)


def test_scalar_discrepancy_witness_path():
    # feed the scalar case a non-scalar matrix through a scalar
    # decomposition: the inference 'Sigma singleton implies scalar' is
    # judged by the line's defect, not asserted.  a e1 = e1 + e2 leaves e1's
    # line, so the defect is 1 and e1 is the witness
    a = np.array([[1.0, 0.0], [1.0, 2.0]], dtype=complex)
    fake = _modeled_result(a, generate_algebra([np.eye(2)]).decomposition())
    assert (fake.case_tag, fake.verdict) == ("scalar-case", "not-invariant")
    assert fake.invariance_defect == pytest.approx(1.0)
    assert np.allclose(fake.witness, [1.0, 0.0], atol=1e-12)
    assert fake.notes["scalar_gap"] > 0.9


def test_invariant_subspace_input_validation():
    with pytest.raises(ValueError):
        invariant_subspace(np.eye(1))
    with pytest.raises(ValueError):
        invariant_subspace(np.eye(2), mode="magic")


# ---------------------------------------------------------------------------
# the Sigma flags and the invsub case tag are read off the blocks, and the
# paper result is deterministic linear algebra: scaling a by c > 0 or
# permuting its basis moves neither, nor the block list, the paper verdict,
# its rank or the fiber size

SCALE_INPUTS = {
    "diag(1, 2)": np.diag([1.0, 2.0]),
    "upper triangular": np.array([[1.0, 1.0], [0.0, 2.0]]),
    "shift3": np.eye(3, k=1),
    "I + 1e-7 E12": np.eye(2) + 1e-7 * E12,
    "3 I": 3 * np.eye(2),
}
SCALES = [1e-12, 1e-9, 1e-6, 1e-5, 1e-3, 1e4, 1e8, 1e-200, 1e200, 1e-300, 1e300]


def _structure(a):
    report = sigma_big(a)
    blocks = [(blk.irrep_dim, blk.multiplicity)
              for blk in generate_algebra([a]).decomposition().blocks]
    paper = invariant_subspace(a, mode="paper")[0]
    return (report.sigma_singleton, report.sigma_equals_big, blocks, paper.case_tag,
            paper.verdict, paper.dims[0], paper.notes.get("fiber_size"))


@pytest.mark.parametrize("name", sorted(SCALE_INPUTS))
def test_flags_blocks_and_case_tag_do_not_depend_on_scale_or_frame(name):
    a = SCALE_INPUTS[name]
    expected = _structure(a)
    for c in SCALES:
        assert _structure(c * a) == expected, c
    perm = np.eye(len(a))[::-1]
    assert _structure(perm @ a @ perm.T) == expected


def test_one_rule_decides_flags_and_case_tag():
    # scalar -> scalar-case, normal -> out-of-dichotomy, else sigma-split-case
    structures = {name: _structure(a) for name, a in SCALE_INPUTS.items()}
    assert structures == {
        "diag(1, 2)": (False, True, [(1, 1), (1, 1)], "out-of-dichotomy",
                       "out-of-dichotomy", 0, None),
        "upper triangular": (False, False, [(2, 1)], "sigma-split-case", "trivial", 2, 4),
        "shift3": (False, False, [(3, 1)], "sigma-split-case", "trivial", 3, 12),
        "I + 1e-7 E12": (False, False, [(2, 1)], "sigma-split-case", "trivial", 2, 4),
        "3 I": (True, True, [(1, 2)], "scalar-case", "nontrivial", 1, None),
    }


@pytest.mark.parametrize("a", [np.eye(2) + 1e-7 * E12,
                               1e-5 * np.array([[1.0, 1.0], [0.0, 2.0]])],
                         ids=["I + 1e-7 E12", "1e-5 upper triangular"])
def test_non_normal_input_inside_the_old_cuts_is_split_case(a):
    # both generate M2, though the swept gap (5.0e-8 and 7.1e-6) sits below
    # the cuts on it that once decided the flags and the case tag
    assert sigma_big(a).sigma_gap < 1e-5
    assert _structure(a)[:4] == (False, False, [(2, 1)], "sigma-split-case")


def test_scalar_matrices_at_large_scale_pass_the_eigenvalue_check():
    for c in (1e14, 1e100):
        report = sigma_big(c * np.eye(2))
        assert report.sigma_singleton and report.sigma_equals_big


def test_eigenvalue_check_is_relative_to_the_norm(monkeypatch):
    # with every support value halved the swept region misses the
    # eigenvalue 2c by about 0.9c: the check must see that at any scale
    sweep = spectral.support_sweep

    def halved(ms, n_angles):
        supports, vecs = sweep(ms, n_angles)
        return supports / 2, vecs

    monkeypatch.setattr(spectral, "support_sweep", halved)
    for c in (1e-6, 1.0):
        with pytest.raises(RuntimeError, match="escaped"):
            sigma_big(c * np.array([[1.0, 1.0], [0.0, 2.0]]))


def _pow2_input(name):
    g = np.random.default_rng(31).standard_normal((4, 4, 2)) @ [1, 1j]
    return g if name == "generic 4x4" else np.kron(g[:2, :2], np.eye(2))


@pytest.mark.parametrize("name", ["generic 4x4", "M2 x I2"])
def test_sweep_scales_exactly_by_powers_of_two(name):
    # each block image is swept, and sigma(a) taken, at the scale of its
    # largest entry, so 2^k·a has 2^k times a's supports, boundary points,
    # eigenvalues and sigma_gap, bit for bit, also where LAPACK would
    # rescale the raw image of a
    a = _pow2_input(name)
    base = sigma_big(a)
    for k in (-1000, -500, 500, 1000, 1021):
        rep = sigma_big(ldexp_complex(a, k))
        assert np.array_equal(ldexp_complex(base.sigma, k), rep.sigma), k
        assert np.ldexp(base.sigma_gap, k) == rep.sigma_gap, k
        assert len(rep.block_supports) == len(base.block_supports)
        for s0, s1 in zip(base.block_supports, rep.block_supports):
            assert np.array_equal(np.ldexp(s0, k), s1), k
        for b0, b1 in zip(base.block_boundaries, rep.block_boundaries):
            assert np.array_equal(ldexp_complex(b0, k), b1), k


def test_report_near_the_float_limit_is_finite():
    # the Hermitian parts of this image overflow unless it is scaled first;
    # its supports are 2^1000 times those of a · 2^-1000
    a = np.array([[1e308, 1e308], [0.0, -1e308]])
    rep = sigma_big(a)
    small = sigma_big(ldexp_complex(a, -1000))
    assert np.array_equal(rep.block_supports[0], np.ldexp(small.block_supports[0], 1000))
    assert np.isfinite(rep.sigma_gap) and rep.sigma_gap > 1e307
    json.dumps(rep.to_json(), allow_nan=False)  # no Infinity or NaN in the report

# ---------------------------------------------------------------------------
# an oracle for the stacked sweep


def _loop_sweep(m, thetas):
    """Reference: one eigh per angle."""
    supports = np.empty(len(thetas))
    boundary = np.empty(len(thetas), dtype=complex)
    for k, th in enumerate(thetas):
        rot = np.exp(-1j * th) * m
        vals, vecs = np.linalg.eigh((rot + rot.conj().T) / 2)
        supports[k] = vals[-1]
        boundary[k] = np.vdot(vecs[:, -1], m @ vecs[:, -1])
    return supports, boundary


def test_stacked_sweep_matches_per_angle_loop():
    rng = np.random.default_rng(21)
    g3 = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    two_blocks = np.zeros((3, 3), dtype=complex)
    two_blocks[:2, :2] = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    two_blocks[2, 2] = 0.3 - 0.7j
    for a in (E12, g3, two_blocks, np.diag([1.0, 2.0 + 1j])):
        rep = sigma_big(a)
        dec = generate_algebra([a]).decomposition()
        assert len(rep.block_supports) == dec.n_blocks
        for blk, supports, boundary in zip(dec.blocks, rep.block_supports,
                                           rep.block_boundaries):
            ref_s, ref_b = _loop_sweep(blk.irrep(a), THETAS)
            assert np.max(np.abs(supports - ref_s)) < 1e-12
            assert np.max(np.abs(boundary - ref_b)) < 1e-12
    # the kernel itself, on (2, 3, d, d) stacks: one support value and top
    # eigenvector per matrix and angle, whatever the batch axes
    thetas = np.linspace(0.0, 2 * np.pi, 16, endpoint=False)
    for d in (1, 2, 3):
        ms = rng.standard_normal((2, 3, d, d)) + 1j * rng.standard_normal((2, 3, d, d))
        supports, vecs = support_sweep(ms, len(thetas))
        assert supports.shape == (2, 3, 16) and vecs.shape == (2, 3, 16, d)
        for idx in np.ndindex(2, 3):
            m = ms[idx]
            ref_s, ref_b = _loop_sweep(m, thetas)
            boundary = np.einsum("ki,ij,kj->k", vecs[idx].conj(), m, vecs[idx])
            assert np.max(np.abs(supports[idx] - ref_s)) < 1e-12
            assert np.max(np.abs(boundary - ref_b)) < 1e-12


# ---------------------------------------------------------------------------
# the sigma fiber in closed form, and the one verdict rule


def _fiber_input(structure, n):
    """The spectral benchmark's four structures: generic, the shift, a
    repeated summand I_2 ⊗ x and a normal matrix, the last two in a Haar
    frame."""
    rng = np.random.default_rng(n)
    ginibre = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    if structure == "generic":
        return ginibre
    if structure == "shift":
        return np.eye(n, k=1)
    u, _ = np.linalg.qr(ginibre)
    if structure == "dsum":
        x = rng.standard_normal((n // 2, n // 2)) + 1j * rng.standard_normal((n // 2, n // 2))
        return u @ np.kron(np.eye(2), x) @ u.conj().T
    return u @ np.diag(rng.standard_normal(n) + 1j * rng.standard_normal(n)) @ u.conj().T


FIBER_CASES = {f"{s}{n}": _fiber_input(s, n) for s in ("generic", "shift", "normal")
               for n in (2, 3, 5)}
FIBER_CASES.update({f"dsum{n}": _fiber_input("dsum", n) for n in (4, 6)})
FIBER_CASES["small upper triangular"] = 1e-5 * np.array([[1.0, 1.0], [0.0, 2.0]])


@pytest.mark.parametrize("name", sorted(FIBER_CASES))
def test_closed_form_fiber_points_lie_on_their_fiber(name):
    # every point is a unit x with <x, a x> in sigma(a), to 1e-14 ||a||
    a = FIBER_CASES[name]
    xs = _sigma_fiber(a)
    assert len(xs) and np.allclose(np.linalg.norm(xs, axis=1), 1.0)
    values = np.einsum("ki,ij,kj->k", xs.conj(), a, xs)
    gaps = np.min(np.abs(values[:, None] - spectrum(a)[None, :]), axis=1)
    assert gaps.max() <= 1e-14 * op_norm(a)


@pytest.mark.parametrize("name", ["shift3", "shift5"])
def test_split_case_span_of_the_shift_is_all_of_cn(name):
    # e1 is the eigenvector and every e_j with j >= 2 has <e_j, S e_j> = 0,
    # so the fiber spans C^n (without the w_j candidates it would stop at
    # rank 2: beta_j = gamma_j = 0 for e3..en)
    a = FIBER_CASES[name]
    paper = invariant_subspace(a, mode="paper")[0]
    assert paper.case_tag == "sigma-split-case"
    assert (paper.verdict, paper.dims) == ("trivial", (len(a), len(a)))


def test_constructed_subspace_with_known_defect_is_not_invariant():
    # a sends span{e1, e2} out along e3 by the row (3, 4): the defect is 5
    # and the unit vector that leaks most is (3, 4, 0) / 5
    a = np.array([[1.0, 2.0, 0.0], [0.0, 1.0, 0.0], [3.0, 4.0, 2.0]], dtype=complex)
    p = projector_from_basis(np.eye(3, 2, dtype=complex))
    res = _judged(a, p, "oracle", "eigenvector-oracle", {})
    assert res.verdict == "not-invariant"
    assert res.invariance_defect == pytest.approx(5.0)
    assert np.allclose(res.witness, [0.6, 0.8, 0.0], atol=1e-12)
    # the same rule reads a trivial subspace first, whatever its defect
    for rank in (0, 3):
        full = projector_from_basis(np.eye(3, rank, dtype=complex))
        assert _judged(a, full, "oracle", "eigenvector-oracle", {}).verdict == "trivial"


def test_eigenvector_span_is_nontrivial():
    a = RNG.standard_normal((4, 4)) + 1j * RNG.standard_normal((4, 4))
    _, vecs = np.linalg.eig(a)
    p = projector_from_basis(np.linalg.qr(vecs[:, :2])[0])
    res = _judged(a, p, "oracle", "eigenvector-oracle", {})
    assert (res.verdict, res.dims, res.witness) == ("nontrivial", (2, 4), None)
    assert res.invariance_defect <= 1e-12 * op_norm(a)
