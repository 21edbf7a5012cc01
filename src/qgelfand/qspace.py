"""The quantum-set structure on the pure states of a finite-dimensional
C*-algebra: closure-stable subsets, the noncommutative product of
functions over pure states, and the claims harness quantifying how far
the noncommutative identities hold."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .algebra import (
    BlockDecomposition,
    FdAlgebra,
    PureState,
    as_pure,
    hat,
    pure_equal,
    random_pure_state,
    same_ray,
)
from .linalg import (
    LATTICE_TOL,
    RANK_TOL,
    VERDICT_TOL,
    DimensionMismatchError,
    Projector,
    cluster_eigenvalues,
    hermitian_eig,
    op_norm,
    proj_leq,
    proj_meet,
    projector_from_matrix,
    sasaki_product,
    support_sweep,
)


@dataclass
class QSubset:
    """A closure-stable set of pure states.

    One projector per block of the decomposition, acting on that block's
    irrep space; the members in block i are the vector states of the range
    of projectors[i] (rank 0 = no members there).
    """

    decomposition: BlockDecomposition
    projectors: list[Projector]

    def __post_init__(self):
        if [p.dim for p in self.projectors] != [b.irrep_dim for b in self.decomposition.blocks]:
            raise DimensionMismatchError("need one projector per block on its irrep space")

    def contains(self, alpha: PureState) -> bool:
        return _in_range(self.projectors[alpha.block], alpha.vector)

    def __eq__(self, other):
        if not isinstance(other, QSubset):
            return NotImplemented
        return self.projectors == other.projectors


# a unit vector lies in a subset's range when its residual ‖P v − v‖ is at
# most _RANGE_SLACK
_RANGE_SLACK = 1e3 * LATTICE_TOL


def _range_residual(p: Projector, v: np.ndarray) -> float:
    return np.linalg.norm(p.basis @ (p.basis.conj().T @ v) - v)


def _in_range(p: Projector, v: np.ndarray) -> bool:
    return _range_residual(p, v) <= _RANGE_SLACK


def _near_range(p: Projector, v: np.ndarray) -> bool:
    """Whether a unit vector v is close enough to range(p) that a projector
    whose range lies in range(p) may still hold v within _RANGE_SLACK.

    A projector built from vectors of range(p), such as the Sasaki product
    p ∧ (p⊥ ∨ q), has a Gram–Schmidt basis that strays from range(p) by
    about eps/RANK_TOL ≈ 2e-8.  By the triangle inequality its residual at
    v is at least v's residual under p less about that stray, so a v that
    is not near p is rejected by _in_range with a margin of about
    _RANGE_SLACK.  A rank-0 p has residual 1 and is never near.
    """
    return _range_residual(p, v) <= 2 * _RANGE_SLACK


def _zero_projectors(dec: BlockDecomposition) -> list[Projector]:
    return [Projector(basis=np.zeros((b.irrep_dim, 0), dtype=complex)) for b in dec.blocks]


def qsubset_sasaki(u: QSubset, v: QSubset) -> QSubset:
    """Per-block Sasaki product of the component projectors: the subset
    product U * V transported to the projector picture."""
    return QSubset(
        u.decomposition, [sasaki_product(p, q) for p, q in zip(u.projectors, v.projectors)]
    )


# ---------------------------------------------------------------------------
# functions on P(A)


@dataclass
class QFunction:
    """Finite complex combination of characteristic functions of QSubsets."""

    decomposition: BlockDecomposition
    terms: list[tuple[complex, QSubset]] = field(default_factory=list)

    def evaluate(self, alpha: PureState) -> complex:
        return sum(c for c, u in self.terms if u.contains(alpha))

    def conjugate(self) -> "QFunction":
        return QFunction(self.decomposition, [(np.conj(c), u) for c, u in self.terms])

    def sup_norm(self) -> float:
        """Exact sup of |f| over all pure states, by enumerating realizable
        membership patterns per block.

        A pattern T is realizable iff the intersection of the subspaces in
        T is nonzero and not contained in any subspace outside T (over C a
        subspace inside a finite union of subspaces lies in one of them).
        """
        best = 0.0
        for i in range(self.decomposition.n_blocks):
            comps = [(c, u.projectors[i]) for c, u in self.terms]
            live = [t for t, (_, p) in enumerate(comps) if p.rank > 0]
            for size in range(1, len(live) + 1):
                for pattern in itertools.combinations(live, size):
                    val = abs(sum(comps[t][0] for t in pattern))
                    if val <= best:
                        continue
                    if _pattern_realizable(comps, pattern):
                        best = val
        return best


def _pattern_realizable(comps: list[tuple[complex, Projector]], pattern: tuple[int, ...]) -> bool:
    inter = comps[pattern[0]][1]
    for t in pattern[1:]:
        inter = proj_meet(inter, comps[t][1])
        if inter.rank == 0:
            return False
    return not any(
        p.rank > 0 and proj_leq(inter, p)
        for s, (_, p) in enumerate(comps)
        if s not in pattern
    )


def qfunction_star(f: QFunction, g: QFunction) -> QFunction:
    """Bilinear extension of χ_U * χ_V = χ_{U*V} (per-block Sasaki
    products); reduces to the pointwise product when every block is
    one-dimensional."""
    terms = []
    for cf, u in f.terms:
        for cg, v in g.terms:
            terms.append((cf * cg, qsubset_sasaki(u, v)))
    return QFunction(f.decomposition, terms)


def qfunction_star_at(f: QFunction, g: QFunction, alpha: PureState) -> complex:
    """(f * g)(α), equal to qfunction_star(f, g).evaluate(α) but with Sasaki
    products only in α's block and only for term pairs whose f-factor p is
    near α (_near_range) and whose g-factor has members there.  The product
    p ∧ (p⊥ ∨ q) has its range inside range(p), so when α is not near p no
    product with p contains α; a product with a rank-0 factor is rank 0.
    The skipped pairs are exactly pairs _in_range rejects, and the
    coefficients of the others add in the same order, from 0.  In a block
    of dimension 1 a near p is the identity of C, so p ∧ (p⊥ ∨ q) = p for
    every q of rank 1 and α lies in it: no product is formed there."""
    i = alpha.block
    total = 0
    for cf, u in f.terms:
        p = u.projectors[i]
        if not _near_range(p, alpha.vector):
            continue
        for cg, v in g.terms:
            q = v.projectors[i]
            if q.rank > 0 and (p.dim == 1 or _in_range(sasaki_product(p, q), alpha.vector)):
                total += cf * cg
    return total


def hat_as_qfunction(alg: FdAlgebra, a: np.ndarray, block: int | None = None) -> QFunction:
    """The simple-function surrogate of â: per block, the spectral
    decomposition of the compressed element turned into characteristic
    functions of eigenspaces (split into Hermitian parts first).

    Exact for commutative algebras; in the noncommutative case the
    surrogate differs from â on superpositions, which is precisely what
    the claims harness measures.

    With a block index, only that block's terms are built, in the order
    the full function has them: what qfunction_star_at reads at a state
    of that block.
    """
    dec = alg.decomposition()
    a = alg.require_member(a)
    h = (a + a.conj().T) / 2
    k = (a - a.conj().T) / (2j)
    terms: list[tuple[complex, QSubset]] = []
    zeros = _zero_projectors(dec)
    indices = range(dec.n_blocks) if block is None else [block]
    for part, scale in ((h, 1.0), (k, 1j)):
        for i in indices:
            m = dec.blocks[i].irrep(part)
            vals, vecs = hermitian_eig(m)
            for idx in cluster_eigenvalues(vals):
                lam = float(np.mean(vals[idx]))
                # |lam| ≤ ‖part‖, so a negligible part gives no term
                if abs(lam) <= VERDICT_TOL:
                    continue
                projs = zeros.copy()
                projs[i] = Projector(basis=vecs[:, idx])
                terms.append((scale * lam, QSubset(dec, projs)))
    return QFunction(dec, terms)


# ---------------------------------------------------------------------------
# claims harness


@dataclass
class ClaimsReport:
    claim: str
    instance: str
    defects: dict
    verdict: str  # holds-within-tol | fails | inconclusive
    witnesses: list
    seed: int | None = None

    def to_json(self) -> dict:
        return {
            "claim": self.claim,
            "instance": self.instance,
            "defects": {k: _json_value(v) for k, v in self.defects.items()},
            "verdict": self.verdict,
            "witnesses": [_json_value(w) for w in self.witnesses],
            # singleton joins always span superpositions; the field keeps
            # the report format stable
            "mode": "superposition",
            "seed": self.seed,
        }


def _json_value(v):
    if isinstance(v, complex):
        return {"re": v.real, "im": v.imag}
    if isinstance(v, (np.floating, np.integer)):
        return v.item()
    if isinstance(v, np.ndarray):
        return _json_value(v.tolist())
    if isinstance(v, (np.bool_, bool)):
        return bool(v)
    if isinstance(v, PureState):
        return {"block": v.block, "vector": [[z.real, z.imag] for z in v.vector]}
    if isinstance(v, (list, tuple)):
        return [_json_value(x) for x in v]
    if isinstance(v, dict):
        return {k: _json_value(x) for k, x in v.items()}
    return v


def hat_preimage_qness(alg: FdAlgebra, a: np.ndarray, center: complex, radius: float,
                       samples: int, rng: np.random.Generator,
                       instance: str = "") -> ClaimsReport:
    """Is the preimage of a disc under â closed under singleton joins?

    Samples equivalent pairs inside the preimage and measures how far â
    leaves the disc on the joined subspace's vector states.  Quantifies
    whether â can be q-continuous for the modeled subset lattice.

    The values of â on a joined pair's vector states form the numerical
    range of the compressed 2×2 matrix m, traced by linalg.support_sweep:
    at each of 64 angles the top eigenvector η of the Hermitian part of
    e^{-iθ} m gives the boundary point <η, mη>.  The first 200 joined pairs
    are orthonormalized and compressed as one stack, and all pairs and
    angles go through the sweep's closed form for 2×2 matrices at once.
    The violation is the largest one; violations within LATTICE_TOL of it
    tie, and the witness is the first of them in (pair, angle) order, so
    rounding noise cannot pick it.
    """
    dec = alg.decomposition()
    a = alg.require_member(a)
    # a is checked once here; each sample is hat's arithmetic on a's images
    images = [blk.irrep(a) for blk in dec.blocks]
    inside: list[PureState] = []
    for _ in range(samples):
        s = random_pure_state(dec, rng)
        if abs(s.value(images[s.block]) - center) <= radius:
            inside.append(s)
    worst = 0.0
    witness = None
    # every block's irrep space is padded with zeros to the largest one, so
    # that pairs of all blocks share one stack: the padding adds exact zeros
    # to every product and stays zero in every frame
    dim = max(blk.irrep_dim for blk in dec.blocks)
    vecs = np.zeros((len(inside), dim), dtype=complex)
    for k, s in enumerate(inside):
        vecs[k, :len(s.vector)] = s.vector
    blocks = np.array([s.block for s in inside], dtype=int)
    first, second = _join_pairs(blocks, vecs, 200)
    pairs = len(first)
    if pairs:
        # two-pass Gram–Schmidt of each pair; pure_equal excluded parallel
        # vectors, so the second residual is far above RANK_TOL
        x, y = vecs[first], vecs[second]
        x = x / np.linalg.norm(x, axis=1, keepdims=True)
        for _ in range(2):
            y = y - x * np.sum(x.conj() * y, axis=1, keepdims=True)
        w = np.stack([x, y / np.linalg.norm(y, axis=1, keepdims=True)], axis=-1)
        padded = np.zeros((dec.n_blocks, dim, dim), dtype=complex)
        for i, im in enumerate(images):
            padded[i, :len(im), :len(im)] = im
        ms = w.conj().swapaxes(-1, -2) @ padded[blocks[first]] @ w
        _, eta = support_sweep(ms, 64)  # eta: (pairs, angles, 2)
        # <η, mη>, with mη for all angles of a pair from one η mᵀ product
        z = np.sum(eta.conj() * (eta @ ms.swapaxes(-1, -2)), axis=-1)
        d = z - center
        viol = np.hypot(d.real, d.imag) - radius
        top = viol.max()
        if top > 0:
            worst = float(top)
            k, j = np.unravel_index(np.argmax(viol >= top - LATTICE_TOL), viol.shape)
            block = int(blocks[first[k]])
            witness = PureState(block, (w[k] @ eta[k, j])[:dec.blocks[block].irrep_dim])
    if pairs == 0:
        # no inequivalent same-block pairs: joins add nothing, closure holds
        if inside:
            return ClaimsReport("hat_preimage_qness", instance,
                                {"violation": 0.0, "pairs_checked": 0,
                                 "preimage_size": len(inside)},
                                "holds-within-tol", [])
        return ClaimsReport("hat_preimage_qness", instance, {"violation": None},
                            "inconclusive", [])
    verdict = "holds-within-tol" if worst <= VERDICT_TOL else "fails"
    return ClaimsReport(
        "hat_preimage_qness", instance,
        {"violation": worst, "pairs_checked": pairs, "preimage_size": len(inside)},
        verdict, [witness] if witness is not None else [],
    )


def _join_pairs(blocks: np.ndarray, vecs: np.ndarray, cap: int) -> tuple[np.ndarray, np.ndarray]:
    """The first cap pairs (i, j), i < j, in itertools.combinations order,
    of samples in one block whose states are not pure_equal: (the i's, the
    j's).  Found row by row, sample i against every later sample, so only
    the rows up to the cap are formed, not all pairs."""
    first, second = [np.zeros(0, dtype=int)], [np.zeros(0, dtype=int)]
    found = 0
    for i in range(len(blocks) - 1):
        later = i + 1 + np.flatnonzero(blocks[i + 1:] == blocks[i])
        # pure_equal's rule on the overlaps <v_i, v_j>
        later = later[~same_ray(vecs[later] @ vecs[i].conj())]
        later = later[:cap - found]
        first.append(np.full(len(later), i))
        second.append(later)
        found += len(later)
        if found >= cap:
            break
    return np.concatenate(first), np.concatenate(second)


def cstar_identity_defect(f: QFunction, instance: str = "") -> ClaimsReport:
    """|‖f * f̄‖ − ‖f‖²| under the modeled product and exact sup-norms."""
    prod = qfunction_star(f, f.conjugate())
    lhs = prod.sup_norm()
    rhs = f.sup_norm() ** 2
    defect = abs(lhs - rhs)
    return ClaimsReport(
        "cstar_identity", instance,
        {"norm_f_star_fbar": lhs, "norm_f_sq": rhs, "defect": defect},
        "holds-within-tol" if defect <= VERDICT_TOL else "fails",
        [],
    )


def prop9_defect(alg: FdAlgebra, state, a: np.ndarray, b: np.ndarray,
                 instance: str = "") -> ClaimsReport:
    """Purity-characterization defects at a state.

    (i) |α(h²) − α(h)²| for the Hermitian parts of a and b;
    (ii) |α(p∧q) − χ_{U_p ∧ U_q}(α)| for the top spectral projections of
    those Hermitian parts (the displayed lattice identity);
    (iii) the characteristic-function defect min(|p̂(α)|, |1 − p̂(α)|).
    """
    dec = alg.decomposition()
    a = alg.require_member(a)
    b = alg.require_member(b)
    defects = {}
    hs = [(a + a.conj().T) / 2, (b + b.conj().T) / 2]
    defects["square"] = max(
        abs(hat(alg, h @ h, state) - hat(alg, h, state) ** 2) for h in hs
    )
    # mixed states are allowed: they are simply not members of any QSubset,
    # and the square defect then measures the variance directly
    pure_alpha = as_pure(dec, state)
    projs = [_top_spectral_projector(h) for h in hs]
    p, q = projs
    meets = [proj_meet(projector_from_matrix(blk.irrep(p)), projector_from_matrix(blk.irrep(q)))
             for blk in dec.blocks]
    meet_elem = sum(
        blk.embed(m.matrix) for blk, m in zip(dec.blocks, meets)
    )
    u_meet = QSubset(dec, meets)
    chi_val = 1.0 if pure_alpha is not None and u_meet.contains(pure_alpha) else 0.0
    defects["lattice_meet"] = abs(hat(alg, meet_elem, state) - chi_val)
    defects["characteristic"] = max(
        min(abs(hat(alg, pp, state)), abs(1 - hat(alg, pp, state))) for pp in projs
    )
    verdict = "holds-within-tol" if max(defects.values()) <= VERDICT_TOL else "fails"
    return ClaimsReport("prop9", instance, defects, verdict,
                        [pure_alpha] if pure_alpha is not None else [])


def _top_spectral_projector(h: np.ndarray) -> np.ndarray:
    vals, vecs = hermitian_eig(h)
    idx = cluster_eigenvalues(vals)[-1]
    w = vecs[:, idx]
    return w @ w.conj().T


def hat_is_characteristic_defect(alg: FdAlgebra, p: np.ndarray, samples: int,
                                 rng: np.random.Generator,
                                 instance: str = "") -> ClaimsReport:
    """max over sampled pure α of min(|p̂(α)|, |1 − p̂(α)|): zero iff p̂ is
    {0,1}-valued on the sample."""
    dec = alg.decomposition()
    p = alg.require_member(p)
    if op_norm(p @ p - p) > LATTICE_TOL:
        raise ValueError("p must be a projection in the algebra")
    # p is checked once here; each sample is hat's arithmetic on p's images
    images = [blk.irrep(p) for blk in dec.blocks]
    worst = 0.0
    witness = None
    for _ in range(samples):
        s = random_pure_state(dec, rng)
        v = s.value(images[s.block])
        val = min(abs(v), abs(1 - v))
        if val > worst:
            worst, witness = val, s
    return ClaimsReport(
        "hat_is_characteristic", instance, {"defect": worst, "samples": samples},
        "holds-within-tol" if worst <= VERDICT_TOL else "fails",
        [witness] if witness is not None else [],
    )


def thm3_diagnostics(alg: FdAlgebra, samples: int, rng: np.random.Generator,
                     instance: str = "") -> ClaimsReport:
    """Injectivity, point separation, and homomorphism defect of the hat map.

    Injectivity is exact linear algebra: the smallest singular value of
    a ↦ ⊕ (block compressions of a) on the basis span.  The homomorphism
    defect compares α(ab) with (â * b̂)(α) in the simple-function model of
    the product; it vanishes for commutative algebras.  The model is
    built in the sampled state's block only, and b̂'s surrogate only when
    the state is near the range of some â term (_near_range): every
    product's range lies inside its â factor's, so otherwise no product
    holds the state and the model is 0, as the full evaluation gives.  A
    Haar state in a block of dimension ≥ 2 lies near no eigenspace of â.
    """
    dec = alg.decomposition()
    # images[i][j] is block i's image of basis element j; column j of the
    # injectivity matrix stacks them over the blocks
    images = [blk.irrep(alg.basis) for blk in dec.blocks]
    injection = np.concatenate([im.reshape(alg.dim, -1) for im in images], axis=1).T
    sv = np.linalg.svd(injection, compute_uv=False)
    injective = bool(sv[-1] > RANK_TOL)

    separated = True
    sep_witness = None
    for _ in range(samples):
        s, t = random_pure_state(dec, rng), random_pure_state(dec, rng)
        if pure_equal(s, t):
            continue
        if all(abs(s.value(x) - t.value(y)) <= RANK_TOL
               for x, y in zip(images[s.block], images[t.block])):
            separated = False
            sep_witness = (s, t)
            break

    hom_defect = 0.0
    hom_witness = None
    for _ in range(samples):
        s = random_pure_state(dec, rng)
        a = alg.random_element(rng)
        b = alg.random_element(rng)
        # qfunction_star_at reads only the terms in s's block, and only
        # pairs whose â term is near s
        fa = hat_as_qfunction(alg, a, s.block)
        if any(_near_range(u.projectors[s.block], s.vector) for _, u in fa.terms):
            model = qfunction_star_at(fa, hat_as_qfunction(alg, b, s.block), s)
        else:
            model = 0
        # hat(alg, a @ b, s) without its membership check: a and b are
        # random elements, members by construction
        val = abs(s.value(dec.blocks[s.block].irrep(a @ b)) - model)
        if val > hom_defect:
            hom_defect, hom_witness = val, (s,)
    defects = {
        "min_singular_value": float(sv[-1]),
        "injective": injective,
        "separation": separated,
        "homomorphism_defect": hom_defect,
    }
    ok = injective and separated and hom_defect <= VERDICT_TOL
    witnesses = [w for w in (sep_witness, hom_witness) if w is not None]
    return ClaimsReport(
        "thm3", instance, defects,
        "holds-within-tol" if ok else "fails",
        witnesses if not ok else [],
    )
