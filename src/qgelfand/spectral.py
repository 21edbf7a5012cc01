"""Spectrum versus the pure-state image Sigma(a), star-cyclic
decomposition, the GNS-realized multiplication-operator unitary, and the
invariant-subspace pipeline (modeled construction plus an eigenvector
oracle)."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .algebra import FdAlgebra, generate_algebra, gns, vector_state
from .linalg import (
    RANK_TOL,
    SIGMA_TOL,
    Projector,
    as_cmatrix,
    haar_unit_vectors,
    op_norm,
    orthonormalize,
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


@dataclass
class SpectralReport:
    """sigma(a) against Sigma(a) = union over blocks of the numerical
    range of the block image, described by support functions on a uniform
    angle grid plus a Monte-Carlo sample cloud.

    The two flags are read off the Wedderburn blocks, not off the swept
    geometry: Sigma(a) is a single point iff a is scalar (one block, of
    irrep dimension 1), and equals sigma(a) iff every irrep is
    1-dimensional (a is normal).  sigma_gap is the measured margin, not
    the decision.

    The canonical JSON keeps the verdict and what it rests on; the angle
    grid, the boundary polylines and the cloud stay on the object for the
    plot data.  The cloud, samples values <x, a x> over Haar unit vectors
    x, is drawn from rng when first read and then kept: only the plot data
    reads it."""

    sigma: np.ndarray
    thetas: np.ndarray
    block_supports: list[np.ndarray]  # support value per angle, per block
    block_boundaries: list[np.ndarray]  # complex boundary polyline per block
    sigma_singleton: bool
    sigma_equals_big: bool
    sigma_gap: float  # largest distance from a swept boundary point to sigma
    a: np.ndarray
    samples: int
    rng: np.random.Generator
    _cloud: np.ndarray | None = field(default=None, init=False, repr=False)

    @property
    def cloud(self) -> np.ndarray:
        if self._cloud is None:
            xs = haar_unit_vectors(self.samples, self.a.shape[0], self.rng)
            self._cloud = _quadratic_values(self.a, xs)
        return self._cloud

    def contains(self, z: complex, tol: float | None = None) -> bool:
        """z in Sigma(a) iff some block's support function dominates it at
        every swept angle (numerical ranges are convex), within tol; the
        default slack is SIGMA_TOL · ‖a‖₂, so it scales with a."""
        if tol is None:
            tol = SIGMA_TOL * op_norm(self.a)
        proj = np.real(np.exp(-1j * self.thetas) * z)
        return any(np.all(proj <= supports + tol) for supports in self.block_supports)

    def to_json(self) -> dict:
        return {
            "sigma": [[z.real, z.imag] for z in self.sigma],
            "block_supports": [s.tolist() for s in self.block_supports],
            "n_angles": len(self.thetas),
            "samples": self.samples,
            "sigma_gap": float(self.sigma_gap),
            "flags": {
                "sigma_singleton": self.sigma_singleton,
                "sigma_equals_big": self.sigma_equals_big,
            },
        }


def sigma_big(a: np.ndarray, samples: int = 2000,
              rng: np.random.Generator | None = None) -> SpectralReport:
    """Sigma(a): the set of values of a-hat over pure states of the
    algebra generated by a.

    Per block, the numerical range of the block image is traced by
    linalg.support_sweep: for each angle the top eigenvector of the
    Hermitian part of e^{-i theta} m gives a boundary point.  The flags
    come from the block list alone (see SpectralReport), so they do not
    depend on the scale of a.  Every eigenvalue must lie in the swept
    region within 100 SIGMA_TOL ‖a‖, or RuntimeError is raised.  A Haar
    sample cloud of samples ambient unit vectors is drawn from rng for
    diagnostics when the report's cloud is first read.
    """
    a = as_cmatrix(a)
    if rng is None:
        rng = np.random.default_rng(0)
    alg = generate_algebra([a])
    dec = alg.decomposition()
    sig = spectrum(a)
    thetas = np.linspace(0.0, 2 * np.pi, N_ANGLES, endpoint=False)

    block_supports = []
    block_boundaries = []
    for blk in dec.blocks:
        m = blk.irrep(a)
        supports, v = support_sweep(m, N_ANGLES)
        block_supports.append(supports)
        block_boundaries.append(_quadratic_values(m, v))

    # Sigma(a) is the union of the blocks' numerical ranges: one point iff
    # a is scalar, sigma(a) iff every irrep is 1-dimensional (a is normal)
    singleton = len(dec.blocks) == 1 and dec.blocks[0].irrep_dim == 1
    equals = all(blk.irrep_dim == 1 for blk in dec.blocks)
    gap = _distances_to(sig, np.concatenate(block_boundaries)).max()
    report = SpectralReport(sig, thetas, block_supports, block_boundaries,
                            singleton, equals, gap, a, samples, rng)
    escape_tol = 100 * SIGMA_TOL * op_norm(a)
    for lam in sig:
        if not report.contains(lam, escape_tol):
            raise RuntimeError("eigenvalue escaped the swept Sigma region")
    return report


def _quadratic_values(m: np.ndarray, vs: np.ndarray) -> np.ndarray:
    """<v, m v> for every row v of vs."""
    return np.einsum("ki,ij,kj->k", vs.conj(), m, vs)


def _distances_to(points: np.ndarray, zs: np.ndarray) -> np.ndarray:
    """Distance from each z in zs to the nearest of points."""
    return np.min(np.abs(zs[:, None] - points[None, :]), axis=1)


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
    unitary: np.ndarray  # GNS coordinates -> ambient
    unitarity_defect: float
    intertwining_defect: float
    gns_dim: int
    representation: object = None  # the GNS representation the unitary maps from

    def defect_for(self, x: np.ndarray) -> float:
        """‖x − U π(x) U†‖ against the representation used to build U."""
        u = self.unitary
        return op_norm(x - u @ self.representation.pi(x) @ u.conj().T)


def fc_unitary(alg: FdAlgebra, h: np.ndarray) -> IntertwiningReport:
    """The unitary [x] -> x h from the GNS space of the vector state at h
    onto the ambient space, verified to carry every algebra element to its
    GNS left-multiplication image.

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
    return IntertwiningReport(u, unit_defect, defect, rep.dim, rep)


# ---------------------------------------------------------------------------
# invariant subspaces


@dataclass
class InvariantSubspaceResult:
    projector: Projector | None
    invariance_defect: float | None
    dims: tuple[int, int]  # (rank, ambient)
    case_tag: str  # scalar-case | sigma-split-case | oracle | out-of-dichotomy
    provenance: str  # paper-construction | eigenvector-oracle
    verdict: str  # nontrivial | trivial | out-of-dichotomy | scalar-discrepancy
    notes: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "projector": None if self.projector is None else {
                "re": self.projector.matrix.real.tolist(),
                "im": self.projector.matrix.imag.tolist(),
            },
            "invariance_defect": self.invariance_defect,
            "rank": self.dims[0],
            "ambient": self.dims[1],
            "case_tag": self.case_tag,
            "provenance": self.provenance,
            "verdict": self.verdict,
            "notes": {k: str(v) for k, v in self.notes.items()},
        }


def invariance_defect(a: np.ndarray, p: Projector) -> float:
    comp = np.eye(p.dim) - p.matrix
    return op_norm(comp @ a @ p.matrix)


def _oracle_result(a: np.ndarray) -> InvariantSubspaceResult:
    n = a.shape[0]
    vals, vecs = np.linalg.eig(a)
    order = np.lexsort((vals.imag, vals.real))
    v = vecs[:, order[0]]
    p = projector_from_basis(v.reshape(-1, 1))
    defect = invariance_defect(a, p)
    verdict = "nontrivial" if 0 < p.rank < n else "trivial"
    return InvariantSubspaceResult(p, defect, (p.rank, n), "oracle",
                                   "eigenvector-oracle", verdict,
                                   {"eigenvalue": vals[order[0]]})


def _modeled_result(a: np.ndarray, report: SpectralReport, samples: int,
                    rng: np.random.Generator) -> InvariantSubspaceResult:
    """The sigma-versus-Sigma dichotomy, with measured defects in place of
    asserted invariance.

    The case comes from the report's two flags, which the Wedderburn
    blocks decide: scalar (Sigma a single point) is scalar-case, normal
    (Sigma equals sigma) is out-of-dichotomy, anything else is
    sigma-split-case.

    Scalar case: Sigma a single point lambda; the claim 'a = lambda I'
    is checked, and its failure is recorded as a discrepancy witness.
    Split case: sigma strictly inside Sigma; the subspace is the span of
    sampled pure-state vectors whose a-hat value sits on sigma (nearest
    quantile fallback if the exact fiber is empty), rank-capped below the
    ambient dimension.
    """
    n = a.shape[0]
    norm_a = max(1.0, op_norm(a))
    split_tol = SIGMA_TOL * norm_a
    if report.sigma_singleton:
        lam = complex(np.mean(np.concatenate(report.block_boundaries)))
        scalar_gap = op_norm(a - lam * np.eye(n))
        p = Projector(basis=np.eye(n, 1, dtype=complex))
        defect = invariance_defect(a, p)
        if scalar_gap > RANK_TOL * norm_a:
            return InvariantSubspaceResult(
                p, defect, (1, n), "scalar-case", "paper-construction",
                "scalar-discrepancy",
                {"lambda": lam, "scalar_gap": scalar_gap},
            )
        return InvariantSubspaceResult(p, defect, (1, n), "scalar-case",
                                       "paper-construction", "nontrivial",
                                       {"lambda": lam})
    if report.sigma_equals_big:
        return InvariantSubspaceResult(
            None, None, (0, n), "out-of-dichotomy", "paper-construction",
            "out-of-dichotomy",
            {"reason": "sigma equals Sigma but is not a single point"},
        )
    # split case: sample pure-state vectors, keep the sigma fiber
    xs = haar_unit_vectors(samples, n, rng)
    resid = _distances_to(report.sigma, _quadratic_values(a, xs))
    fiber = xs[resid <= split_tol]
    quantile_fallback = not len(fiber)
    if quantile_fallback:
        fiber = xs[np.argsort(resid)[:max(1, samples // 10)]]
    # the fiber's span, accepted in sample order and capped below C^n
    p = Projector(basis=orthonormalize(fiber)[:n - 1].T)
    defect = invariance_defect(a, p)
    return InvariantSubspaceResult(
        p, defect, (p.rank, n), "sigma-split-case", "paper-construction",
        "nontrivial" if 0 < p.rank < n else "trivial",
        {"fiber_size": len(fiber), "quantile_fallback": quantile_fallback,
         "sigma_gap": report.sigma_gap},
    )


def invariant_subspace(a: np.ndarray, mode: str = "oracle",
                       samples: int = 2000,
                       rng: np.random.Generator | None = None) -> list[InvariantSubspaceResult]:
    """Candidate invariant subspaces for a.

    'oracle' returns an eigenvector line (always exists over C) with its
    defect.  'paper' runs the modeled dichotomy construction and reports
    its measured defect without asserting success.  'both' returns both.
    """
    a = as_cmatrix(a)
    if a.shape[0] != a.shape[1] or a.shape[0] < 2:
        raise ValueError("need a square matrix of size at least 2")
    if mode not in ("paper", "oracle", "both"):
        raise ValueError(f"unknown mode {mode!r}")
    if rng is None:
        rng = np.random.default_rng(0)
    out = []
    if mode in ("paper", "both"):
        report = sigma_big(a)
        out.append(_modeled_result(a, report, samples, rng))
    if mode in ("oracle", "both"):
        out.append(_oracle_result(a))
    return out
