"""Spectrum versus the pure-state image Sigma(a), star-cyclic
decomposition, the GNS-realized multiplication-operator unitary, and the
invariant-subspace pipeline (modeled construction plus an eigenvector
oracle)."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .algebra import (
    FdAlgebra,
    GnsRepresentation,
    generate_algebra,
    gns,
    r_is_discrete,
    vector_state,
)
from .linalg import (
    RANK_TOL,
    SIGMA_TOL,
    VERDICT_TOL,
    Projector,
    _phase_normalize,
    as_cmatrix,
    ldexp_complex,
    op_norm,
    orthonormalize,
    peak_exponent,
    phase_table,
    projector_from_basis,
    support_sweep,
)


class NotCyclicError(ValueError):
    def __init__(self, achieved: int, ambient: int):
        self.achieved = achieved
        self.ambient = ambient
        super().__init__(
            f"vector is not star-cyclic: orbit spans {achieved} of {ambient} dimensions"
        )


def spectrum(a: np.ndarray) -> np.ndarray:
    """Eigenvalues with algebraic multiplicity, sorted by (re, im)."""
    a = as_cmatrix(a)
    if a.shape[0] != a.shape[1]:
        raise ValueError("matrix must be square")
    vals = np.linalg.eigvals(a)
    order = np.lexsort((vals.imag, vals.real))
    return vals[order]


# angles of the support-line sweep, uniform on [0, 2π)
N_ANGLES = 720
THETAS = np.linspace(0.0, 2 * np.pi, N_ANGLES, endpoint=False)


@dataclass
class SpectralReport:
    """sigma(a) against Sigma(a) = union over blocks of the numerical
    range of the block image, described by support functions on the
    THETAS angle grid.

    The two flags are read off the Wedderburn blocks, not off the swept
    geometry: Sigma(a) is a single point iff a is scalar (one block, of
    irrep dimension 1), and equals sigma(a) iff every irrep is
    1-dimensional (a is normal).  sigma_gap is the measured margin, not
    the decision.

    The canonical JSON keeps the verdict and what it rests on; the
    boundary polylines stay on the object for the plot data."""

    sigma: np.ndarray
    block_supports: list[np.ndarray]  # support value per angle, per block
    block_boundaries: list[np.ndarray]  # complex boundary polyline per block
    sigma_singleton: bool
    sigma_equals_big: bool
    sigma_gap: float  # largest distance from a swept boundary point to sigma
    a: np.ndarray

    def contains(self, z, tol: float | None = None):
        """z in Sigma(a) iff some block's support function dominates it at
        every swept angle (numerical ranges are convex), within tol; the
        default slack is SIGMA_TOL · ‖a‖₂, so it scales with a.  z is a
        point, giving a bool, or an array of points, giving a bool array of
        its shape: one rule for one point and for many."""
        if tol is None:
            tol = SIGMA_TOL * op_norm(self.a)
        proj = np.real(phase_table(N_ANGLES) * np.asarray(z)[..., None, None])
        inside = np.all(proj <= np.array(self.block_supports) + tol, axis=-1).any(axis=-1)
        return inside if inside.ndim else bool(inside)

    def to_json(self) -> dict:
        return {
            "sigma": [[z.real, z.imag] for z in self.sigma],
            "block_supports": [s.tolist() for s in self.block_supports],
            "sigma_gap": float(self.sigma_gap),
            "flags": {
                "sigma_singleton": self.sigma_singleton,
                "sigma_equals_big": self.sigma_equals_big,
            },
        }


def sigma_big(a: np.ndarray) -> SpectralReport:
    """Sigma(a): the set of values of a-hat over pure states of the
    algebra generated by a.

    Per block, the numerical range of the block image is traced by
    linalg.support_sweep: for each angle the top eigenvector of the
    Hermitian part of e^{-i theta} m gives a boundary point.  The sweep
    runs on m scaled by the power of two of its largest entry, and its
    supports and boundary points are scaled back; sigma(a) is taken of a
    scaled by the power of two of a's largest entry, and scaled back too.
    Powers of two scale exactly, so 2^k·a gives 2^k times the same bits
    at every k, and no Hermitian part overflows.  The flags
    come from the block list alone (see SpectralReport), so they do not
    depend on the scale of a.  Every eigenvalue must lie in the swept
    region within 100 SIGMA_TOL ‖a‖, or RuntimeError is raised.  Nothing
    is drawn at random.
    """
    a = as_cmatrix(a)
    alg = generate_algebra([a])
    # sigma, like the sweep, is taken at the scale of a's largest entry
    scale = peak_exponent(a)
    scaled_sig = spectrum(ldexp_complex(a, -scale))
    sig = ldexp_complex(scaled_sig, scale)

    block_supports = []
    block_boundaries = []
    for blk in alg.blocks:
        m = blk.irrep(a)
        e = peak_exponent(m)
        m = ldexp_complex(m, -e)
        supports, v = support_sweep(m, N_ANGLES)
        block_supports.append(np.ldexp(supports, e))
        block_boundaries.append(ldexp_complex(_quadratic_values(m, v), e))

    singleton, equals = _sigma_flags(alg)
    # the largest distance from a boundary point to the nearest eigenvalue,
    # measured at the scale of a's largest entry, where no difference overflows
    bnd = ldexp_complex(np.concatenate(block_boundaries), -scale)
    gap = np.ldexp(np.abs(bnd[:, None] - scaled_sig).min(axis=1).max(), scale)
    report = SpectralReport(sig, block_supports, block_boundaries,
                            singleton, equals, gap, a)
    if not report.contains(sig, 100 * SIGMA_TOL * op_norm(a)).all():
        raise RuntimeError("eigenvalue escaped the swept Sigma region")
    return report


def _sigma_flags(alg: FdAlgebra) -> tuple[bool, bool]:
    """(sigma_singleton, sigma_equals_big): Sigma(a), the union of the
    blocks' numerical ranges, is one point iff a is scalar (one block, of
    irrep dimension 1), and sigma(a) iff every irrep is 1-dimensional."""
    return [blk.irrep_dim for blk in alg.blocks] == [1], r_is_discrete(alg)


def _quadratic_values(m: np.ndarray, vs: np.ndarray) -> np.ndarray:
    """<v, m v> for every row v of vs."""
    return np.einsum("ki,ij,kj->k", vs.conj(), m, vs)


# ---------------------------------------------------------------------------
# star-cyclic decomposition


@dataclass
class CyclicDecomposition:
    algebra: FdAlgebra
    pieces: list[tuple[Projector, np.ndarray]]  # (subspace projector, cyclic vector)
    orthogonality_defect: float
    completeness_defect: float


def orbit_basis(alg: FdAlgebra, h: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the orbit span {x h : x in the algebra}."""
    return orthonormalize(alg.basis @ h).T


def cyclic_decompose(alg: FdAlgebra) -> CyclicDecomposition:
    """Split the ambient space into orbit subspaces of the *-algebra, each
    with a star-cyclic vector.

    Greedy: take the first standard basis vector with a component outside
    the span so far, project it out, and form its orbit.  Orbits of a
    *-closed algebra are reducing, so the pieces stay orthogonal.
    """
    n = alg.ambient_dim
    pieces: list[tuple[Projector, np.ndarray]] = []
    covered = np.zeros((n, 0), dtype=complex)
    for j in range(n):
        if covered.shape[1] == n:
            break
        e = np.zeros(n, dtype=complex)
        e[j] = 1.0
        resid = e - covered @ (covered.conj().T @ e)
        if np.linalg.norm(resid) < RANK_TOL:
            continue
        h = resid / np.linalg.norm(resid)
        basis = orbit_basis(alg, h)
        pieces.append((Projector(basis=basis), h))
        covered = orthonormalize(np.hstack([covered, basis]).T).T
    ortho = 0.0
    for i in range(len(pieces)):
        for j in range(i + 1, len(pieces)):
            ortho = max(ortho, op_norm(pieces[i][0].matrix @ pieces[j][0].matrix))
    total = sum(p.matrix for p, _ in pieces)
    complete = op_norm(total - np.eye(n))
    return CyclicDecomposition(alg, pieces, ortho, complete)


# ---------------------------------------------------------------------------
# the multiplication-operator unitary


@dataclass
class IntertwiningReport:
    unitary: np.ndarray  # GNS coordinates of representation -> ambient
    unitarity_defect: float
    intertwining_defect: float
    representation: GnsRepresentation  # the frame the unitary maps from


def fc_unitary(alg: FdAlgebra, h: np.ndarray) -> IntertwiningReport:
    """The unitary [x] -> x h from the GNS space of the vector state at h
    onto the ambient space, verified to carry every algebra element to its
    GNS left-multiplication image.  The report keeps that GNS
    representation: the unitary is defined against its frame, which
    follows the last bits of the state.

    Requires h star-cyclic for the algebra.
    """
    n = alg.ambient_dim
    h = np.asarray(h, dtype=complex).reshape(-1)
    h = h / np.linalg.norm(h)
    orbit = orbit_basis(alg, h)
    if orbit.shape[1] < n:
        raise NotCyclicError(orbit.shape[1], n)
    state = vector_state(h)
    rep = gns(alg, state)
    if rep.dim != n:
        raise NotCyclicError(rep.dim, n)
    # U solves U . (GNS class of b_j) = b_j h over the basis
    classes = rep.vector_of(alg.basis).T
    u = (alg.basis @ h).T @ np.linalg.pinv(classes)
    unit_defect = op_norm(u.conj().T @ u - np.eye(n))
    # rep_basis[j] is pi(b_j)
    residuals = alg.basis - u @ rep.rep_basis @ u.conj().T
    defect = float(np.linalg.svd(residuals, compute_uv=False)[:, 0].max())
    return IntertwiningReport(u, unit_defect, defect, rep)


# ---------------------------------------------------------------------------
# invariant subspaces


@dataclass
class InvariantSubspaceResult:
    projector: Projector | None
    invariance_defect: float | None
    dims: tuple[int, int]  # (rank, ambient)
    case_tag: str  # scalar-case | sigma-split-case | oracle | out-of-dichotomy
    provenance: str  # paper-construction | eigenvector-oracle
    verdict: str  # trivial | nontrivial | not-invariant | out-of-dichotomy
    witness: np.ndarray | None = None  # unit x in ran P maximizing ‖(I−P)ax‖
    notes: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        def parts(z):
            return None if z is None else {"re": z.real.tolist(), "im": z.imag.tolist()}
        return {
            "projector": parts(None if self.projector is None else self.projector.matrix),
            "witness": parts(self.witness),
            "invariance_defect": self.invariance_defect,
            "rank": self.dims[0],
            "ambient": self.dims[1],
            "case_tag": self.case_tag,
            "provenance": self.provenance,
            "verdict": self.verdict,
            "notes": {k: str(v) for k, v in self.notes.items()},
        }


def _judged(a: np.ndarray, p: Projector, case_tag: str, provenance: str,
            notes: dict) -> InvariantSubspaceResult:
    """The one verdict rule: trivial when P is 0 or I, else nontrivial when
    the defect ‖(I − P) a P‖ is at most VERDICT_TOL · ‖a‖, else
    not-invariant, with the unit x in ran P that maximizes ‖(I − P) a x‖ as
    witness: the top right singular vector of (I − P) a P, phase-normalized."""
    n = p.dim
    leak = (np.eye(n) - p.matrix) @ a @ p.matrix
    defect = op_norm(leak)
    verdict, witness = "nontrivial", None
    if p.rank in (0, n):
        verdict = "trivial"
    elif defect > VERDICT_TOL * op_norm(a):
        verdict = "not-invariant"
        witness = _phase_normalize(np.linalg.svd(leak)[2][:1].conj().T)[:, 0]
    return InvariantSubspaceResult(p, defect, (p.rank, n), case_tag, provenance,
                                   verdict, witness, notes)


def _oracle_result(a: np.ndarray) -> InvariantSubspaceResult:
    vals, vecs = np.linalg.eig(a)
    order = np.lexsort((vals.imag, vals.real))
    p = projector_from_basis(vecs[:, order[0]].reshape(-1, 1))
    return _judged(a, p, "oracle", "eigenvector-oracle", {"eigenvalue": vals[order[0]]})


def _sigma_fiber(a: np.ndarray) -> np.ndarray:
    """Unit vectors x with <x, a x> in sigma(a), as rows, in closed form.

    Per eigenvalue λ, with multiplicity, the SVD of m = a − λ gives u, its
    last right singular vector, and the others w_j; the SVDs of all the m
    are one stacked call.  With β_j = u* m w_j and γ_j = w_j* m w_j,
    x_j = conj(γ_j) u − conj(β_j) w_j has x_j* m x_j = 0
    exactly when m u = 0, with no division.  The candidates are u, every
    w_j and every x_j longer than SIGMA_TOL · ‖a‖ (a shorter one lies in
    span(u, w_j), w_j on the fiber), normalized, kept when |x* m x| ≤
    SIGMA_TOL · ‖a‖.  a is first scaled by the power of two of its largest
    entry, exactly, as in sigma_big, and then divided by ‖a‖, so that no
    product under- or overflows at any scale, subnormal entries included."""
    a = ldexp_complex(a, -peak_exponent(a))
    a = a / op_norm(a)
    ms = a - spectrum(a)[:, None, None] * np.eye(len(a))
    points = []
    # rows of each v: the right singular vectors of its m
    for m, v in zip(ms, np.linalg.svd(ms)[2].conj()):
        u, ws = v[-1], v[:-1]
        xs = (_quadratic_values(m, ws).conj()[:, None] * u
              - (ws @ (m.T @ u.conj())).conj()[:, None] * ws)
        xs = xs[np.linalg.norm(xs, axis=1) > SIGMA_TOL]
        cands = np.vstack([u, ws, xs / np.linalg.norm(xs, axis=1, keepdims=True)])
        points.append(cands[np.abs(_quadratic_values(m, cands)) <= SIGMA_TOL])
    return np.vstack(points)


def _modeled_result(a: np.ndarray, alg: FdAlgebra) -> InvariantSubspaceResult:
    """The sigma-versus-Sigma dichotomy, its case read off the flags of
    alg, the algebra a generates.
    Scalar: Sigma is the point λ, the 1×1 irrep, and a = λI would make the
    line e₁ invariant; it is judged, with ‖a − λI‖ noted as scalar_gap.
    Normal: out of the dichotomy.  Else split: the sigma fiber's span."""
    n = a.shape[0]
    singleton, normal = _sigma_flags(alg)
    if singleton:
        lam = complex(alg.blocks[0].irrep(a)[0, 0])
        return _judged(a, Projector(basis=np.eye(n, 1, dtype=complex)), "scalar-case",
                       "paper-construction",
                       {"lambda": lam, "scalar_gap": op_norm(a - lam * np.eye(n))})
    if normal:
        return InvariantSubspaceResult(
            None, None, (0, n), "out-of-dichotomy", "paper-construction", "out-of-dichotomy",
            notes={"reason": "sigma equals Sigma but is not a single point"})
    fiber = _sigma_fiber(a)
    return _judged(a, Projector(basis=orthonormalize(fiber).T), "sigma-split-case",
                   "paper-construction", {"fiber_size": len(fiber)})


def invariant_subspace(a: np.ndarray, mode: str = "oracle") -> list[InvariantSubspaceResult]:
    """Candidate invariant subspaces for a, each judged by its defect:
    'oracle' an eigenvector line, 'paper' the modeled dichotomy, 'both'
    both.  Nothing is drawn at random and no Sigma(a) sweep runs."""
    a = as_cmatrix(a)
    if a.shape[0] != a.shape[1] or a.shape[0] < 2:
        raise ValueError("need a square matrix of size at least 2")
    if mode not in ("paper", "oracle", "both"):
        raise ValueError(f"unknown mode {mode!r}")
    out = []
    if mode in ("paper", "both"):
        out.append(_modeled_result(a, generate_algebra([a])))
    if mode in ("oracle", "both"):
        out.append(_oracle_result(a))
    return out
