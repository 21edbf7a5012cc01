"""Finite-dimensional unital *-algebras of matrices: generated-subalgebra
closure, Wedderburn block decomposition, states and pure states, the GNS
construction, and the hat map a ↦ (evaluation against states).

The decomposition is read off one solve, the commutant of the algebra's
letters: M_n when that commutant is the scalars, otherwise the blocks come
from random elements of it, in a fixed order (largest irrep first, then
largest multiplicity, then the letters' spectra); the center is spanned by
the blocks' central projections."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import (
    LATTICE_TOL,
    RANK_TOL,
    _is_int,
    as_cmatrix,
    cluster_eigenvalues,
    haar_unit_vector,
    hermitian_eig,
    ldexp_complex,
    matrix_from_json,
    numerical_rank,
    op_norm,
    orthonormalize,
    peak_exponent,
)


class AlgebraMembershipError(ValueError):
    pass


class DecompositionError(RuntimeError):
    """Eigenvalue clustering stayed ambiguous after all retries."""


class StateError(ValueError):
    pass


class FdAlgebra:
    """A unital *-closed algebra of n×n matrices.

    letters (a k × n × n stack, k ≥ 0, HS-orthonormal and orthogonal to the
    identity) generate it as a unital algebra: x commutes with the algebra
    exactly when it commutes with every letter.  basis (a d × n × n stack)
    is orthonormal for the Hilbert-Schmidt inner product and spans the
    algebra; it is the closure of the identity and the letters under
    products and adjoints, computed when first read and then kept.  The
    decomposition of an algebra whose letters' commutant is the scalars
    never reads it.
    """

    def __init__(self, ambient_dim: int, letters: np.ndarray):
        self.ambient_dim = ambient_dim
        self.letters = letters
        self._basis: np.ndarray | None = None
        self._commutative: bool | None = None
        self._decomposition: "BlockDecomposition | None" = None

    @property
    def basis(self) -> np.ndarray:
        if self._basis is None:
            self._basis = _close(self.ambient_dim, self.letters)
        return self._basis

    @property
    def dim(self) -> int:
        return len(self.basis)

    def coords(self, a: np.ndarray) -> np.ndarray:
        """HS coordinates <a, b_j> = tr(b_j* a) of a matrix, or of each
        matrix of a stack (..., n, n) -> (..., d)."""
        a = np.asarray(a)
        rows = self.basis.reshape(self.dim, -1)
        return a.reshape(*a.shape[:-2], rows.shape[1]) @ rows.conj().T

    def project(self, a: np.ndarray) -> np.ndarray:
        return np.tensordot(self.coords(a), self.basis, axes=1)

    def contains(self, a: np.ndarray) -> bool:
        """Whether a lies in the algebra within RANK_TOL·‖a‖: relative, so
        that c·a is a member exactly when a is, at every scale c > 0."""
        a = as_cmatrix(a)
        return op_norm(a - self.project(a)) <= RANK_TOL * op_norm(a)

    def require_member(self, a: np.ndarray) -> np.ndarray:
        a = as_cmatrix(a)
        if not self.contains(a):
            raise AlgebraMembershipError("matrix is not in the algebra within tolerance")
        return a

    def random_element(self, rng: np.random.Generator, hermitian: bool = False) -> np.ndarray:
        c = rng.standard_normal(self.dim) + 1j * rng.standard_normal(self.dim)
        a = sum(cj * bj for cj, bj in zip(c, self.basis))
        if hermitian:
            a = (a + a.conj().T) / 2
        return a

    def is_commutative(self) -> bool:
        """Computed when first asked and then kept, as decomposition() is."""
        if self._commutative is None:
            # each basis element against each letter.  Pairs of letters are
            # not enough: for H + εN (H Hermitian, N nilpotent, ε near
            # RANK_TOL) the closure drops the adjoint's residual, so one
            # letter is left, yet its powers close to M_n
            b, g = self.basis[:, None], self.letters[None]
            norms = np.linalg.svd(b @ g - g @ b, compute_uv=False)[..., 0]
            self._commutative = bool(np.all(norms <= LATTICE_TOL))
        return self._commutative

    def decomposition(self) -> "BlockDecomposition":
        if self._decomposition is None:
            self._decomposition = block_decompose(self)
        return self._decomposition

    @classmethod
    def from_json(cls, obj: dict) -> "FdAlgebra":
        if not (isinstance(obj, dict) and _is_int(obj.get("ambient_dim"))
                and isinstance(obj.get("generators"), list)):
            raise ValueError('an algebra must be an object with an integer "ambient_dim" '
                             'and a list of "generators"')
        gens = [matrix_from_json(g) for g in obj["generators"]]
        alg = generate_algebra(gens)
        if alg.ambient_dim != obj["ambient_dim"]:
            raise ValueError("ambient_dim disagrees with generator shapes")
        return alg


def generate_algebra(generators: list[np.ndarray]) -> FdAlgebra:
    """Smallest unital *-closed algebra containing the generators, as its
    letters.

    Each nonzero generator is first scaled by a power of two to a
    Frobenius norm in [1/2, 1): the generated algebra does not depend on
    scale, so the rank decisions must not either.  The power of two of its
    largest entry comes off first, so that the norm neither underflows
    nor overflows, whatever the scale of the input.  The identity, then each
    scaled generator and its adjoint, are HS-orthonormalized in that order;
    the letters are the result without its identity element: the
    HS-orthonormalized non-scalar parts of the scaled generators and their
    adjoints.  So the commutation systems solved against them see each
    letter at unit scale, however nearly scalar its generator is.  The
    closure under products runs only when the algebra's basis is read.
    """
    gens = [as_cmatrix(g) for g in generators]
    if not gens:
        raise ValueError("need at least one generator")
    n = gens[0].shape[0]
    if any(g.shape != (n, n) for g in gens):
        raise ValueError("generators must be square matrices of equal dimension")
    seed = [np.eye(n, dtype=complex)]
    for g in gens:
        if np.any(g):
            # powers of two scale exactly, so an O(1) input keeps its rounding
            g = ldexp_complex(g, -peak_exponent(g))
            g = g * 2.0 ** -math.frexp(np.linalg.norm(g))[1]
        seed.append(g)
        seed.append(g.conj().T)
    # the identity is accepted first
    return FdAlgebra(n, orthonormalize(seed)[1:])


def _close(n: int, letters: np.ndarray) -> np.ndarray:
    """HS-orthonormal basis of the unital *-algebra the letters generate.

    The first basis is the identity's unit followed by the letters, which
    is what orthonormalizing the identity and the letters gives.  Each
    round forms every pairwise product of the current basis with one
    stacked matmul and re-orthonormalizes basis + products + adjoints in
    that order.  The closure terminates because the dimension strictly
    increases each round (bounded by n²).
    """
    basis = np.concatenate([orthonormalize(np.eye(n, dtype=complex)[None]), letters])
    while True:
        products = np.matmul(basis[:, None], basis[None, :]).reshape(-1, n, n)
        adjoints = basis.conj().transpose(0, 2, 1)
        new_basis = orthonormalize(np.concatenate([basis, products, adjoints]))
        if len(new_basis) == len(basis):
            return new_basis
        basis = new_basis


def _commutation_system(mats: np.ndarray, dim: int) -> np.ndarray:
    """The (len(mats)·dim²) × dim² matrix that maps vec(x) to the stacked
    vec(mx - xm) = (I ⊗ m - m^T ⊗ I) vec(x) over the stack mats, with vec
    = column stacking.

    Both Kronecker products are formed for the whole stack at once, as
    broadcast products indexed (k, i, a, j, b) ↦ row (k, i, a), column
    (j, b): the same products np.kron takes, so the same bits."""
    mats = np.asarray(mats)
    ident = np.eye(dim)
    left = ident[None, :, None, :, None] * mats[:, None, :, None, :]
    right = mats.transpose(0, 2, 1)[:, :, None, :, None] * ident[None, None, :, None, :]
    return (left - right).reshape(len(mats) * dim * dim, dim * dim)


def commutant_basis(mats: np.ndarray, dim: int) -> np.ndarray:
    """HS-orthonormal basis of {x : xm = mx for all m in the stack mats}."""
    if len(mats) == 0:
        # nothing to commute with: every matrix unit, in the column-stacking
        # order the SVD of a zero system gives
        units = np.eye(dim * dim, dtype=complex).reshape(dim * dim, dim, dim)
        return units.transpose(0, 2, 1)
    # len(mats) ≥ 1, so the thin SVD's vh is the full dim² × dim² right
    # factor
    _, svals, vh = np.linalg.svd(_commutation_system(mats, dim), full_matrices=False)
    # row j of the null rows of vh, conjugated, is vec(x_j): unstack it
    # column-major
    mats_out = vh[numerical_rank(svals):].conj().reshape(-1, dim, dim).transpose(0, 2, 1)
    # these rows are HS-orthonormal already (Gram defect ≤ 2.2e-15 on the
    # benchmark inputs), but the pass changes their last bits, and those pick
    # the frame inside a degenerate eigenspace of a random commutant element:
    # without it, block isometries, claims defects and preimage sizes move
    return orthonormalize(mats_out)


def center_basis(alg: FdAlgebra) -> np.ndarray:
    """HS-orthonormal basis of the center: the minimal central projections
    of the decomposition, in block order, each scaled to HS norm 1."""
    projs = np.array([blk.central_projector for blk in alg.decomposition().blocks])
    return projs / np.linalg.norm(projs, axis=(1, 2), keepdims=True)


def _random_combination(basis: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    return sum((rng.standard_normal() + 1j * rng.standard_normal()) * b for b in basis)


@dataclass
class Block:
    """One Wedderburn block: irrep dimension, multiplicity, and the isometry
    carrying the isotypic component to (multiplicity space) ⊗ (irrep space)."""

    irrep_dim: int
    multiplicity: int
    isometry: np.ndarray  # n × (d·m), column (k, s) = copy k, irrep coordinate s

    @property
    def central_projector(self) -> np.ndarray:
        return self.isometry @ self.isometry.conj().T

    def irrep(self, a: np.ndarray) -> np.ndarray:
        w = self.isometry[:, : self.irrep_dim]
        return w.conj().T @ a @ w

    def embed(self, x: np.ndarray) -> np.ndarray:
        """The algebra element acting as x on this irrep and 0 elsewhere."""
        m = np.kron(np.eye(self.multiplicity), x)
        return self.isometry @ m @ self.isometry.conj().T


@dataclass
class BlockDecomposition:
    algebra: FdAlgebra
    blocks: list[Block]

    @property
    def n_blocks(self) -> int:
        return len(self.blocks)

    def reconstruct(self, a: np.ndarray) -> np.ndarray:
        return sum(blk.embed(blk.irrep(a)) for blk in self.blocks)


_MAX_RETRIES = 8


def block_decompose(alg: FdAlgebra) -> BlockDecomposition:
    """Wedderburn decomposition of a *-closed matrix algebra.

    Everything is read off the commutant A′ of the algebra's letters (its
    generators and their adjoints, orthonormalized; commuting with the
    letters is commuting with the algebra), solved once.  A scalar commutant
    means the algebra is all of M_n (Burnside): one block whose isometry is
    the identity.  Otherwise the random-element method of Murota, Kanno,
    Kojima & Kojima (Japan J. Indust. Appl. Math. 27, 2010) and Maehara &
    Murota (same volume, 2010) applies: the eigenspaces of a random
    Hermitian x in A′ are irreducible subspaces, and for a random y in A′
    the compression V_j* y V_i of y between two of them is invertible when
    their irreps are equivalent and zero when not.  Equivalent subspaces
    form one block, their frames aligned by the polar factor of that
    compression.  The draws are retried when a compression is neither, or
    when the blocks' Σ m² is not dim A′; they come from default_rng(0), so
    the decomposition is reproducible.

    The blocks are in a fixed order: irrep dimension, largest first, then
    multiplicity, largest first, then the sorted spectra of the letters'
    irrep images.

    Every basis element of a reducible algebra must be rebuilt from the
    blocks; this check is what reads (and so closes) the basis.  When one
    is not, or the draws stay ambiguous, the decomposition is solved once
    more against the whole basis: the closure accepts a direction whose
    residual is barely above RANK_TOL and normalizes it, and a commutator
    with the letters is that much smaller than one with the basis element
    it became.  M_n skips the check and never reads the basis: the
    identity frame rebuilds every matrix exactly.
    """
    try:
        return _decompose(alg, alg.letters)
    except DecompositionError:
        # the whole basis generates the algebra too
        return _decompose(alg, alg.basis)


def _decompose(alg: FdAlgebra, letters: np.ndarray) -> BlockDecomposition:
    """The decomposition of alg read off the commutant of letters, which
    generate it."""
    n = alg.ambient_dim
    comm = commutant_basis(letters, n)
    if len(comm) == 1:
        return BlockDecomposition(alg, [Block(n, 1, np.eye(n, dtype=complex))])
    blocks = sorted(_isotypic_blocks(comm), key=lambda blk: _block_key(blk, letters))
    dec = BlockDecomposition(alg, blocks)
    _check_decomposition(dec)
    return dec


def _isotypic_blocks(comm: np.ndarray) -> list[Block]:
    """The blocks, in no fixed order, from random elements of the
    commutant comm (an HS-orthonormal stack)."""
    rng = np.random.default_rng(0)
    for _ in range(_MAX_RETRIES):
        x = _random_combination(comm, rng)
        vals, vecs = hermitian_eig((x + x.conj().T) / 2)
        spaces = [vecs[:, c] for c in cluster_eigenvalues(vals)]
        groups = _equivalent_frames(spaces, _random_combination(comm, rng))
        if groups is not None and sum(len(g) ** 2 for g in groups) == len(comm):
            return [Block(g[0].shape[1], len(g), np.hstack(g)) for g in groups]
    raise DecompositionError(
        f"commutant eigenspaces stayed ambiguous after {_MAX_RETRIES} retries")


def _equivalent_frames(spaces: list[np.ndarray], y: np.ndarray) -> list[list[np.ndarray]] | None:
    """Group the irreducible subspaces by equivalence, each frame aligned
    with its group's first; None when a compression of y is neither
    invertible nor zero."""
    groups: list[list[np.ndarray]] = []
    for v in spaces:
        for g in groups:
            if g[0].shape[1] != v.shape[1]:
                continue
            # an intertwiner between the two irreps: c times a unitary
            u, sv, vh = np.linalg.svd(v.conj().T @ y @ g[0])
            rank = numerical_rank(sv)
            if rank == len(sv):
                g.append(v @ (u @ vh))
                break
            if rank:
                return None
        else:
            groups.append([v])
    return groups


def _block_key(blk: Block, letters: np.ndarray) -> tuple:
    spectra = np.sort(np.linalg.eigvals(blk.irrep(letters)), axis=-1)
    return (-blk.irrep_dim, -blk.multiplicity, *spectra.ravel().view(float).tolist())


def _check_decomposition(dec: BlockDecomposition):
    alg = dec.algebra
    n = alg.ambient_dim
    total = sum(blk.central_projector for blk in dec.blocks)
    if op_norm(total - np.eye(n)) > 100 * LATTICE_TOL:
        raise DecompositionError("central idempotents do not sum to the identity")
    basis = alg.basis
    # irrep and embed broadcast over the stack of basis elements; an HS-unit
    # basis element has operator norm at most 1, so RANK_TOL is its bound
    defects = np.linalg.norm(dec.reconstruct(basis) - basis, 2, axis=(1, 2))
    if np.any(defects > RANK_TOL):
        raise DecompositionError("block reconstruction fails on a basis element")


# ---------------------------------------------------------------------------
# states


@dataclass
class State:
    """A state given by a density matrix on the ambient space (used only
    through a ↦ tr(rho a) on the algebra)."""

    rho: np.ndarray

    def __post_init__(self):
        r = as_cmatrix(self.rho)
        if r.shape[0] != r.shape[1]:
            raise StateError("density matrix must be square")
        if op_norm(r - r.conj().T) > RANK_TOL:
            raise StateError("density matrix is not Hermitian")
        vals = np.linalg.eigvalsh((r + r.conj().T) / 2)
        if vals.min() < -RANK_TOL:
            raise StateError("density matrix is not positive semidefinite")
        if abs(np.real(np.trace(r)) - 1.0) > RANK_TOL:
            raise StateError("density matrix does not have unit trace")
        self.rho = r

    def __call__(self, a: np.ndarray) -> complex:
        return complex(np.trace(self.rho @ a))


@dataclass(frozen=True)
class PureState:
    """A pure state in block coordinates: unit vector in one irrep space."""

    block: int
    vector: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.vector, dtype=complex).reshape(-1)
        # a non-finite entry makes the norm NaN or inf, which fails this test
        if not abs(np.linalg.norm(v) - 1.0) <= RANK_TOL:
            raise StateError("pure-state vector must be a finite unit vector")
        object.__setattr__(self, "vector", v)

    def value(self, image: np.ndarray) -> complex:
        """â(α) = ⟨v, image·v⟩, where image is a's image in this state's
        block: the one evaluation of an element at a pure state."""
        return complex(np.vdot(self.vector, image @ self.vector))


def vector_state(xi: np.ndarray) -> State:
    xi = np.asarray(xi, dtype=complex).reshape(-1)
    xi = xi / np.linalg.norm(xi)
    return State(np.outer(xi, xi.conj()))


def state_block_matrices(dec: BlockDecomposition, state: State) -> list[np.ndarray]:
    """Per-block reduced matrices rho_i with α(a) = Σ_i tr(rho_i · irrep_i(a))."""
    out = []
    for blk in dec.blocks:
        g = blk.isometry.conj().T @ state.rho @ blk.isometry
        d, m = blk.irrep_dim, blk.multiplicity
        rho_i = np.zeros((d, d), dtype=complex)
        for k in range(m):
            rho_i += g[k * d:(k + 1) * d, k * d:(k + 1) * d]
        out.append((rho_i + rho_i.conj().T) / 2)
    return out


def as_pure(dec: BlockDecomposition, state: State) -> PureState | None:
    """Block-aware purity test on the algebra.

    A state can be ambient-mixed and still pure on the algebra; purity is
    judged from the reduced block matrices: exactly one block carries
    weight and its reduced matrix has rank one.  Returns the pure state in
    block coordinates, or None.
    """
    mats = state_block_matrices(dec, state)
    weights = [float(np.real(np.trace(r))) for r in mats]
    live = [i for i, w in enumerate(weights) if w > RANK_TOL]
    if len(live) != 1:
        return None
    i = live[0]
    vals, vecs = hermitian_eig(mats[i])
    if np.sum(vals > RANK_TOL) != 1:
        return None
    return PureState(i, vecs[:, -1])


def is_pure(dec: BlockDecomposition, state: State) -> bool:
    return as_pure(dec, state) is not None


def random_pure_state(dec: BlockDecomposition, rng: np.random.Generator) -> PureState:
    """Uniform block choice, Haar vector inside the block."""
    i = int(rng.integers(dec.n_blocks))
    return PureState(i, haar_unit_vector(dec.blocks[i].irrep_dim, rng))


def same_ray(overlap):
    """Whether unit vectors with overlap ⟨x, y⟩ span one ray, |⟨x, y⟩| = 1
    within RANK_TOL: the one equality rule for pure states of one block.
    Takes a scalar or an array of overlaps."""
    return np.abs(np.abs(overlap) - 1.0) <= RANK_TOL


def pure_equal(a: PureState, b: PureState) -> bool:
    return a.block == b.block and bool(same_ray(np.vdot(a.vector, b.vector)))


# ---------------------------------------------------------------------------
# GNS construction


@dataclass
class GnsRepresentation:
    algebra: FdAlgebra
    dim: int
    rep_basis: np.ndarray  # d × r × r: the images of the algebra basis
    cyclic_vector: np.ndarray
    _embed: np.ndarray  # coordinates-on-basis -> GNS coordinates

    def vector_of(self, a: np.ndarray) -> np.ndarray:
        """GNS class of an algebra element, or of each element of a stack."""
        return self.algebra.coords(a) @ self._embed.T


def gns(alg: FdAlgebra, state: State) -> GnsRepresentation:
    """GNS representation of (algebra, state).

    The pre-Hilbert space is the algebra with ⟨x, y⟩ = α(y*x); the null
    space is removed by spectral truncation of the Gram matrix.  Each step
    is one contraction over the basis stack.
    """
    basis, rho = alg.basis, state.rho
    # G[j, k] = α(b_j† b_k) = tr(b_j† (b_k rho)) = <b_k rho, b_j>_HS; in
    # coordinates u, v, <u, v> = v† G u — note the conjugate-linear slot
    gram = alg.coords(basis @ rho).T
    gram = (gram + gram.conj().T) / 2
    vals, vecs = hermitian_eig(gram)
    # eigh sorts ascending, so the kept eigenvalues are the last ones
    keep = slice(len(vals) - numerical_rank(vals[::-1]), None)
    basis_coords = vecs[:, keep] / np.sqrt(vals[keep])
    embed = basis_coords.conj().T @ gram

    # left[a, j, k]: coordinate j of b_a b_k, so left[a] is left
    # multiplication by b_a in coordinates
    left = alg.coords(basis[:, None] @ basis[None]).transpose(0, 2, 1)
    rep = embed @ left @ basis_coords
    omega = embed @ alg.coords(np.eye(alg.ambient_dim))
    # <pi(b_a)Ω, Ω> against α(b_a) = tr(rho b_a); an HS-unit b_a has
    # operator norm at most 1, so one slack serves every a
    lhs = (rep @ omega) @ omega.conj()
    alpha = np.einsum("ij,aji->a", rho, basis)
    if np.any(np.abs(lhs - alpha) > 10 * RANK_TOL):
        raise StateError("GNS contract violated: <pi(a)Ω, Ω> != α(a)")
    return GnsRepresentation(alg, basis_coords.shape[1], rep, omega, embed)


def is_irreducible(rep: GnsRepresentation) -> bool:
    """True iff pi(algebra) is all of M_r, r = rep.dim.

    By Burnside's theorem a *-algebra of r×r matrices is irreducible
    exactly when it is M_r (see Lomonosov & Rosenthal, Linear Algebra Appl.
    383, 2004), so this is the numerical rank of the images of the whole
    basis, one d × r² matrix, against r²: one SVD of d rows in place of
    the (d·r²) × r² commutation system whose null space is the commutant.
    The letters' images would generate pi(algebra) too, but near RANK_TOL
    a letter's image can be far smaller than that of a basis element the
    closure normalized from a small residual.
    """
    r2 = rep.dim ** 2
    images = rep.rep_basis.reshape(len(rep.rep_basis), r2)
    return numerical_rank(np.linalg.svd(images, compute_uv=False)) == r2


def r_is_discrete(dec: BlockDecomposition) -> bool:
    """True iff every equivalence class of pure states is a singleton,
    i.e. every block is one-dimensional; cross-checked against direct
    commutativity of the algebra."""
    flag = all(blk.irrep_dim == 1 for blk in dec.blocks)
    commutative = dec.algebra.is_commutative()
    if flag != commutative:
        raise DecompositionError("block structure disagrees with commutativity")
    return flag


# ---------------------------------------------------------------------------
# the hat map


def hat(alg: FdAlgebra, a: np.ndarray, state) -> complex:
    """â(α) = α(a) for a in the algebra; pure states are evaluated through
    their block compression."""
    a = alg.require_member(a)
    if isinstance(state, PureState):
        return state.value(alg.decomposition().blocks[state.block].irrep(a))
    return state(a)
