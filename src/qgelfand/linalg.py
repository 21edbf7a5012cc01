"""Dense complex linear algebra: Hermitian eigendecomposition with a
deterministic phase convention, the support-line sweep of numerical
ranges, subspace arithmetic, and the projector lattice (meet, join,
order, Sasaki product)."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


class DimensionMismatchError(ValueError):
    pass


# The numerical thresholds every verdict rests on; no other module holds
# one.  RANK_TOL decides which singular values, eigenvalues and residual
# norms count as zero; LATTICE_TOL is the slack allowed in projector-lattice
# identities; VERDICT_TOL is the largest measured defect a claims verdict
# reads as holds-within-tol (for invsub's invariance defect, times ‖a‖);
# CLUSTER_GAP is the eigenvalue gap that separates one cluster of a Hermitian
# spectrum from the next; SIGMA_TOL is the slack, times ‖a‖, of the spectral
# module's check that every eigenvalue lies in the swept Sigma(a), and of
# invsub's sigma fiber.  The sixth, the pivot threshold of _phase_normalize,
# only fixes eigenvector phases.
RANK_TOL = 1e-8
LATTICE_TOL = 1e-8
VERDICT_TOL = 1e-9
CLUSTER_GAP = 1e-9
SIGMA_TOL = 1e-6


def as_cmatrix(entries) -> np.ndarray:
    """Coerce to a complex 2-d array, rejecting NaN/Inf entries."""
    a = np.asarray(entries, dtype=complex)
    if a.ndim != 2:
        raise ValueError(f"expected a matrix, got ndim={a.ndim}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix contains non-finite entries")
    return a


def matrix_from_json(obj: dict) -> np.ndarray:
    """re and im must each have shape (rows, cols): nothing broadcasts.
    Every entry must be an int or a float, and rows and cols ints: no
    "2.5" read as 2.5, no true read as 1."""
    if not isinstance(obj, dict) or not {"rows", "cols", "re", "im"} <= obj.keys():
        raise ValueError('a matrix must be an object with "rows", "cols", "re" and "im"')
    rows, cols, re, im = obj["rows"], obj["cols"], obj["re"], obj["im"]
    if not (_is_int(rows) and _is_int(cols)):
        raise ValueError('matrix "rows" and "cols" must be integers')
    if not all(isinstance(part, list) and len(part) == rows
               and all(isinstance(row, list) and len(row) == cols for row in part)
               for part in (re, im)):
        raise ValueError("matrix JSON shape fields disagree with data")
    if not all(isinstance(x, float) or _is_int(x) for part in (re, im) for row in part for x in row):
        raise ValueError("matrix entries must be numbers")
    try:
        return as_cmatrix(np.array(re, dtype=float) + 1j * np.array(im, dtype=float))
    except OverflowError as exc:  # an int beyond the float range
        raise ValueError("matrix contains non-finite entries") from exc


def _is_int(v) -> bool:
    # JSON true/false decode to bool, a subclass of int
    return isinstance(v, int) and not isinstance(v, bool)


def op_norm(a: np.ndarray) -> float:
    # the largest singular value, from the same LAPACK call np.linalg.norm(a, 2)
    # makes, without that wrapper's dispatch
    return float(np.linalg.svd(a, compute_uv=False)[0]) if a.size else 0.0


def numerical_rank(svals: np.ndarray) -> int:
    """How many of the descending, nonempty singular values count as
    nonzero: those above RANK_TOL times the largest, the scale floored at 1
    so that a noise-level system has rank 0."""
    return int(np.sum(svals > RANK_TOL * max(1.0, svals[0])))


def hermitian_eig(a: np.ndarray):
    """Eigendecomposition of the Hermitian part of a complex square matrix.

    Returns (eigenvalues ascending, unitary eigenbasis).  Each eigenvector is
    phase-normalized so its first nonzero component is a positive real,
    making the output reproducible across runs.  Nothing is checked: every
    caller passes a matrix that is Hermitian by construction, and taking
    the Hermitian part only removes its rounding.
    """
    vals, vecs = np.linalg.eigh((a + a.conj().T) / 2)
    return vals, _phase_normalize(vecs)


def _phase_normalize(vecs: np.ndarray) -> np.ndarray:
    """Turn each column's pivot, its first entry above 1e-12·max(1, column
    max), into a positive real; a column without one is left as it is."""
    mag = np.abs(vecs)
    live = mag > 1e-12 * np.maximum(1.0, mag.max(axis=0, initial=0.0))
    cols = np.flatnonzero(live.any(axis=0))
    pivots = vecs[live.argmax(axis=0)[cols], cols]
    out = vecs.copy()
    out[:, cols] *= pivots.conj() / np.abs(pivots)
    return out


def support_sweep(ms: np.ndarray, n_angles: int) -> tuple[np.ndarray, np.ndarray]:
    """Johnson's support-line sweep (SIAM J. Numer. Anal. 15, 1978) of each
    matrix of a (..., d, d) stack over n_angles angles evenly spaced on
    [0, 2π).

    At angle θ the top eigenpair of the Hermitian part H(θ) of e^{-iθ} m is
    the support value of m's numerical range in direction θ and a vector η
    whose <η, mη> is a boundary point.  For d ≤ 2 the eigenpair is in closed
    form (see _top_eigenpair_2x2).  Larger matrices go through one stacked
    eigh over the first n_angles/2 angles only: H(θ + π) = −H(θ), so the
    support at θ + π is minus the bottom eigenvalue at θ, with the bottom
    eigenvector as η.  n_angles must be even.  Returns the support values
    (..., n_angles) and the unit vectors η (..., n_angles, d).
    """
    if n_angles % 2:
        raise ValueError(f"n_angles must be even, got {n_angles}")
    phases = np.exp(-1j * np.linspace(0.0, 2 * np.pi, n_angles, endpoint=False))
    d = ms.shape[-1]
    if d == 1:
        support = (phases * ms[..., 0, :]).real
        return support, np.ones(support.shape + (1,), dtype=complex)
    if d == 2:
        return _top_eigenpair_2x2(phases, ms)
    rot = phases[:n_angles // 2, None, None] * ms[..., None, :, :]
    vals, vecs = np.linalg.eigh((rot + rot.conj().swapaxes(-1, -2)) / 2)
    return (np.concatenate([vals[..., -1], -vals[..., 0]], axis=-1),
            np.concatenate([vecs[..., -1], vecs[..., 0]], axis=-2))


def _top_eigenpair_2x2(phases: np.ndarray, ms: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Top eigenpair of the Hermitian part [[α, β], [β̄, δ]] of e^{-iθ} m
    for each phase e^{-iθ} and 2×2 matrix m of a (..., 2, 2) stack.

    With h = (α − δ)/2 and r = hypot(h, |β|) the eigenvalue is
    (α + δ)/2 + r, and the eigenvector (β, r − h) for h ≤ 0, else
    (r + h, β̄): the choice keeps its larger entry at least r, so neither
    cancels.  A scalar Hermitian part (r = 0) gets e₂, as LAPACK returns
    for a scalar matrix.  r, |β| and the norm of η come from hypot, which
    neither overflows nor underflows where squaring an entry would.
    """
    alpha = (phases * ms[..., 0, 0, None]).real
    delta = (phases * ms[..., 1, 1, None]).real
    beta = (phases * ms[..., 0, 1, None] + (phases * ms[..., 1, 0, None]).conj()) / 2
    h = (alpha - delta) / 2
    abs_beta = np.abs(beta)
    r = np.hypot(h, abs_beta)
    lower = h <= 0
    eta = np.empty(h.shape + (2,), dtype=complex)
    eta[..., 0] = np.where(lower, beta, r + h)
    eta[..., 1] = np.where(lower, r - h, beta.conj())
    norm = np.hypot(abs_beta, r + np.abs(h))
    scalar = norm == 0
    eta[scalar, 1] = 1
    norm[scalar] = 1
    eta *= (1 / norm)[..., None]  # a real factor: no complex division
    return (alpha + delta) / 2 + r, eta


def cluster_eigenvalues(vals: np.ndarray) -> list[np.ndarray]:
    """Group sorted eigenvalues into clusters separated by more than
    CLUSTER_GAP.

    Returns index arrays, one per cluster (one empty cluster for no
    eigenvalues).
    """
    return np.split(np.arange(len(vals)), np.flatnonzero(np.diff(vals) > CLUSTER_GAP) + 1)


_GS_CHUNK = 64  # items projected against the basis in one matmul


def orthonormalize(items) -> np.ndarray:
    """Orthonormal basis, as a stack (r, ...), of the span of a stack of k
    items (k, ...): vectors, or matrices under the Hilbert-Schmidt inner
    product; a matrix of columns goes through a transpose.

    Items are accepted in input order when their residual after two
    projections against the basis so far is at least RANK_TOL, and the scan
    stops once the basis spans the whole space: classical Gram-Schmidt with
    one re-orthogonalization, orthonormal to machine precision ("twice is
    enough": Giraud, Langou, Rozložník & van den Eshof, Numer. Math. 101,
    2005).  A chunk of items is projected against the basis with one matmul
    (twice), then each item accepted inside it is projected out of the
    chunk's later items at once (twice).  The argument is not written to.
    """
    stack = np.asarray(items, dtype=complex)
    shape = stack.shape[1:]
    rows = stack.reshape(len(stack), math.prod(shape))
    full = rows.shape[1]
    basis = np.empty((min(len(rows), full), full), dtype=complex)
    r = 0
    for lo in range(0, len(rows), _GS_CHUNK):
        if r == full:
            break
        chunk = rows[lo:lo + _GS_CHUNK].copy()
        if r:
            done = basis[:r]
            for _ in range(2):
                chunk -= (chunk @ done.conj().T) @ done
        start = 0
        while start < len(chunk) and r < full:
            live = np.square(chunk[start:].view(float)).sum(axis=1) >= RANK_TOL ** 2
            i = int(live.argmax())
            if not live[i]:
                break
            i += start
            v = chunk[i]
            if r:
                done = basis[:r]
                v = v - (done.conj() @ v) @ done
            b = basis[r]
            np.divide(v, np.linalg.norm(v), out=b)
            rest = chunk[i + 1:]
            if len(rest):
                bc = b.conj()
                for _ in range(2):
                    rest -= (rest @ bc)[:, None] * b
            r += 1
            start = i + 1
    # a copy, so that a kept basis does not hold the unused rows
    return basis[:r].reshape((r, *shape)).copy()


@dataclass(frozen=True, kw_only=True)
class Projector:
    """Orthogonal projector onto a closed subspace, held as an orthonormal
    basis of its range (dim × rank, rank may be 0); the matrix is derived.

    The basis is taken as given: projector_from_matrix and
    projector_from_basis are the entries that make one.
    """

    basis: np.ndarray
    matrix: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "matrix", self.basis @ self.basis.conj().T)

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    @property
    def rank(self) -> int:
        return self.basis.shape[1]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Projector):
            return NotImplemented
        return (
            self.dim == other.dim
            and op_norm(self.matrix - other.matrix) <= LATTICE_TOL
        )

    def __hash__(self):
        return hash((self.dim, self.rank))


def projector_from_matrix(m) -> Projector:
    """Projector onto the range of a Hermitian idempotent matrix; the
    checked entry for matrices from outside the lattice kernels."""
    m = as_cmatrix(m)
    if m.shape[0] != m.shape[1]:
        raise DimensionMismatchError("projector must be square")
    if op_norm(m - m.conj().T) > LATTICE_TOL:
        raise ValueError("projector is not Hermitian within tol")
    if op_norm(m @ m - m) > LATTICE_TOL:
        raise ValueError("projector is not idempotent within tol")
    vals, vecs = hermitian_eig(m)
    return Projector(basis=vecs[:, vals > 0.5])


def projector_from_basis(columns: np.ndarray) -> Projector:
    """Projector onto the span of the given columns (may be none)."""
    cols = np.asarray(columns, dtype=complex)
    if cols.ndim != 2:
        raise ValueError("need a matrix of columns")
    return Projector(basis=orthonormalize(cols.T).T)


def _check_same_dim(p: Projector, q: Projector):
    if p.dim != q.dim:
        raise DimensionMismatchError("projectors act on different spaces")


def proj_meet(p: Projector, q: Projector) -> Projector:
    """Projector onto range(p) ∩ range(q).

    Computed as the eigenspace of p + q at eigenvalue 2: the sum attains 2
    exactly on the intersection.
    """
    _check_same_dim(p, q)
    vals, vecs = hermitian_eig(p.matrix + q.matrix)
    return projector_from_basis(vecs[:, vals > 2 - RANK_TOL])


def proj_join(p: Projector, q: Projector) -> Projector:
    """Projector onto span(range(p) ∪ range(q))."""
    _check_same_dim(p, q)
    return projector_from_basis(np.hstack([p.basis, q.basis]))


def sasaki_product(p: Projector, q: Projector) -> Projector:
    """The projector p ∧ (p⊥ ∨ q), i.e. compression of q into p at lattice level.

    Closed form: p ∧ (p⊥ ∨ q) is the range projection of p·range(q).  If
    x ∈ range(p) is y + z with y ∈ range(p⊥), z ∈ range(q), then
    x = px = pz; conversely pz = z − p⊥z lies in both p and p⊥ ∨ q.
    """
    _check_same_dim(p, q)
    return projector_from_basis(p.matrix @ q.basis)


def proj_leq(p: Projector, q: Projector) -> bool:
    """Order of the projection lattice: p <= q iff pq = qp = p."""
    _check_same_dim(p, q)
    return op_norm(p.matrix @ q.matrix - p.matrix) <= LATTICE_TOL


def haar_unit_vector(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-uniform point on the unit sphere of C^dim."""
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def haar_unit_vectors(count: int, dim: int, rng: np.random.Generator) -> np.ndarray:
    """count Haar-uniform unit vectors of C^dim as the rows of one array.

    Draws the same normals in the same order as count successive
    haar_unit_vector calls, so the rows equal those vectors up to rounding.
    """
    g = rng.standard_normal((count, 2, dim))
    v = g[:, 0] + 1j * g[:, 1]
    return v / np.linalg.norm(v, axis=1, keepdims=True)
