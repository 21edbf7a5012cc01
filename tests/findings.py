"""Findings about the paper's constructions that no command reports: the
finite q-set product S(X) and its saturation identity, the semigroup laws
that fail or hold beyond the generators, and the closure and literal join
of pure states.  The tests read them; the package's commands do not.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass

import numpy as np

from qgelfand.algebra import BlockDecomposition, PureState, pure_equal
from qgelfand.linalg import VERDICT_TOL, Projector, projector_from_basis
from qgelfand.oml import SetOml, StructureError
from qgelfand.sasaki import BaerSemigroup, SemigroupBudgetError, enumerate_semigroup

# ---------------------------------------------------------------------------
# semigroup diagnostics


def compose(sg: BaerSemigroup, i: int, j: int) -> int:
    """The element acting as (φ_i ∘ φ_j)(q) = φ_i(φ_j(q))."""
    return sg.index[sg.table[i][sg.table[j]].tobytes()]


def identity(sg: BaerSemigroup) -> int:
    """The element acting as the identity map."""
    return sg.index[np.arange(sg.lattice.n, dtype=sg.table.dtype).tobytes()]


def subset_of(sg: BaerSemigroup, i: int) -> int:
    """U_φ = φ(top), as a lattice element."""
    return int(sg.table[i, sg.lattice.top])


def star_antihom_defects(sg: BaerSemigroup) -> list[tuple[int, int]]:
    """Pairs violating (φψ)* = ψ*φ*; expected empty."""
    return [
        (i, j)
        for i, j in itertools.product(range(sg.size), repeat=2)
        if sg.star[compose(sg, i, j)] != compose(sg, int(sg.star[j]), int(sg.star[i]))
    ]


def perp_antihom_defects(sg: BaerSemigroup) -> list[tuple[int, int]]:
    """Pairs violating (φψ)⊥ = ψ⊥φ⊥.

    The perp map is an annihilator complement, not an anti-automorphism:
    the pair law already fails in the two-element Boolean algebra
    ((φ_0 id)⊥ = id but id⊥ φ_0⊥ = φ_0).  A nonempty result is a
    documented finding about the construction, not a bug.
    """
    return [
        (i, j)
        for i, j in itertools.product(range(sg.size), repeat=2)
        if sg.perp[compose(sg, i, j)] != compose(sg, int(sg.perp[j]), int(sg.perp[i]))
    ]


def uphi_collisions(sg: BaerSemigroup) -> list[tuple[int, int]]:
    """Pairs of distinct elements with the same image subset U_φ.

    Nonempty on MO2 already, so the subset alone does not determine the
    semigroup element; products must be taken on elements, not subsets.
    """
    seen: dict[int, int] = {}
    bad = []
    for i in range(sg.size):
        u = subset_of(sg, i)
        if u in seen:
            bad.append((seen[u], i))
        else:
            seen[u] = i
    return bad


# ---------------------------------------------------------------------------
# quantum sets: the classical one, and the one induced on a member


def powerset_quantum_set(ground: list[str]) -> SetOml:
    """(X, P(X)): the classical quantum set on a finite ground set."""
    npts = len(ground)
    members = [frozenset(i for i in range(npts) if mask >> i & 1) for mask in range(1 << npts)]
    full = frozenset(range(npts))
    index = {m: i for i, m in enumerate(members)}
    ortho = [index[full - m] for m in members]
    return SetOml(ground, members, ortho)


def relative_lattice(qs: SetOml, y) -> SetOml:
    """The quantum set induced on a member y, with relative complement y ∧ u⊥."""
    yi = qs.member_index(y)
    yset = qs.members[yi]
    below = [i for i, m in enumerate(qs.members) if m <= yset]
    local = {i: k for k, i in enumerate(below)}
    members = [qs.members[i] for i in below]
    ortho = []
    for i in below:
        rel = yset & qs.members[qs.ortho[i]]
        try:
            ortho.append(local[qs.member_index(rel)])
        except KeyError:
            raise StructureError(
                f"relative complement of member {i} is not a member below y"
            ) from None
    return SetOml(list(qs.ground), members, ortho)


# ---------------------------------------------------------------------------
# the q-set product on subsets and characteristic functions


class QSetProduct:
    """The product structure S(X) of a finite quantum set.

    Wraps the Baer*-semigroup of the member lattice; subsets are the point
    sets of the images U_φ = φ(X).  Elements are semigroup indices, composed
    with compose.
    """

    def __init__(self, qs: SetOml, cap: int = 10_000):
        self.qs = qs
        self.lattice = qs.lattice
        self.semigroup = enumerate_semigroup(self.lattice, cap)
        # canonical representative element per subset: first by discovery
        self._rep: dict[frozenset[int], int] = {}
        for i in range(self.semigroup.size):
            u = self.subset_points(i)
            self._rep.setdefault(u, i)

    def subset_points(self, element: int) -> frozenset[int]:
        return self.qs.members[subset_of(self.semigroup, element)]

    def element_for_subset(self, points) -> int:
        key = frozenset(points)
        try:
            return self._rep[key]
        except KeyError:
            raise KeyError(f"{set(points)} is not in S(X)") from None

    def member_element(self, points) -> int:
        """The closed projection (Sasaki map) of a lattice member."""
        return self.semigroup.generator_of[self.qs.member_index(points)]


@dataclass
class ChiFunction:
    """Finite complex combination of characteristic functions of S(X) subsets.

    Canonical form: coefficient map keyed by subset, zero coefficients
    dropped.  Products pick the canonical representative element for each
    subset; whether that choice matters is a claim the tests check, not an
    assumption.
    """

    qset_product: QSetProduct
    coeffs: dict[frozenset[int], complex]

    def canonical(self) -> "ChiFunction":
        clean = {u: c for u, c in self.coeffs.items() if abs(c) > 0}
        return ChiFunction(self.qset_product, clean)

    def evaluate(self, point: int) -> complex:
        return sum(c for u, c in self.coeffs.items() if point in u)

    def sup_norm(self) -> float:
        npts = len(self.qset_product.qs.ground)
        if npts == 0:
            return 0.0
        return max(abs(self.evaluate(x)) for x in range(npts))


def chi(sp: QSetProduct, points) -> ChiFunction:
    return ChiFunction(sp, {frozenset(points): 1.0 + 0j})


def chi_star(f: ChiFunction, g: ChiFunction) -> ChiFunction:
    """Bilinear extension of χ_U * χ_V = χ_{U*V}."""
    if f.qset_product is not g.qset_product:
        raise ValueError("functions live on different quantum sets")
    if any(c == 0 for c in f.coeffs.values()) or any(c == 0 for c in g.coeffs.values()):
        warnings.warn("non-canonical chi function input; normalizing", stacklevel=2)
        f, g = f.canonical(), g.canonical()
    sp = f.qset_product
    out: dict[frozenset[int], complex] = {}
    for u, cu in f.coeffs.items():
        eu = sp.element_for_subset(u)
        for v, cv in g.coeffs.items():
            # U * V = U_{φψ}, computed on the underlying maps
            w = sp.subset_points(compose(sp.semigroup, eu, sp.element_for_subset(v)))
            out[w] = out.get(w, 0j) + cu * cv
    return ChiFunction(sp, out).canonical()


def saturation_check(
    sp: QSetProduct,
    y_points,
    pairs: list[tuple[frozenset[int], frozenset[int]]] | None = None,
    cap: int = 10_000,
):
    """Test the saturation identity (U ∧ Y) *_Y (V ∧ Y) = (U *_X V) ∧ Y.

    Runs over all member pairs of L(X) unless a sample is given.  Returns
    (verdict, witness) where verdict is True / False / None (inconclusive:
    relative semigroup hit its budget).
    """
    qs = sp.qs
    yset = frozenset(qs.members[qs.member_index(y_points)])
    sub = relative_lattice(qs, yset)
    try:
        sub_sp = QSetProduct(sub, cap)
    except SemigroupBudgetError:
        return None, None
    if pairs is None:
        pairs = [
            (qs.members[i], qs.members[j])
            for i in range(qs.n)
            for j in range(qs.n)
        ]
    for u, v in pairs:
        uy, vy = u & yset, v & yset
        lhs = sub_sp.subset_points(
            compose(sub_sp.semigroup, sub_sp.member_element(uy), sub_sp.member_element(vy)))
        rhs = sp.subset_points(
            compose(sp.semigroup, sp.member_element(u), sp.member_element(v))) & yset
        if lhs != rhs:
            return False, (u, v, lhs, rhs)
    # Prop. 5 restriction identity for characteristic functions follows
    # pointwise from the subset identity; spot-check it anyway.
    for u, v in pairs:
        fx = chi_star(chi(sp, u), chi(sp, v))
        fy = chi_star(chi(sub_sp, u & yset), chi(sub_sp, v & yset))
        for x in sorted(yset):
            if abs(fx.evaluate(x) - fy.evaluate(x)) > VERDICT_TOL:
                return False, (u, v, x)
    return True, None


# ---------------------------------------------------------------------------
# joins and closures of pure states


def literal_join(alpha: PureState, beta: PureState) -> list[PureState]:
    """Pure states of the form c1·α + c2·β (as functionals) with
    |c1|² + |c2|² = 1: only the corners, α and β.

    For states of one block with independent vectors x, y, hermiticity of
    c1·xx* + c2·yy* forces real coefficients, the trace forces c1 + c2 = 1,
    and with the normalization c1·c2 = 0.  States of different blocks are
    carried by centrally orthogonal supports, so a combination of both is
    never pure either.  Since the literal join of two states never leaves
    them, the literal closure of a seed set is the seed set itself.
    """
    return [alpha] if pure_equal(alpha, beta) else [alpha, beta]


def qsubset_closure(dec: BlockDecomposition, seeds: list[PureState]) -> list[Projector]:
    """Least closure-stable subset containing the seeds, as one projector
    per block: the span of the seeds' vectors in that block (rank 0 where
    there are none).  Of two seeds, it is {α} ∨ {β}: the two points for
    inequivalent states, the vector states of span{x, y} for equivalent
    ones."""
    if not seeds:
        raise ValueError("need at least one seed state")
    return [projector_from_basis(np.array([s.vector for s in seeds if s.block == i],
                                          dtype=complex).reshape(-1, blk.irrep_dim).T)
            for i, blk in enumerate(dec.blocks)]
