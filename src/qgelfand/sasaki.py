"""Sasaki projections, the generated Baer*-semigroup, recovery of the
lattice from its closed projections, and the induced noncommutative
product of subsets / characteristic functions on a quantum set."""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass, field

import numpy as np

from .linalg import VERDICT_TOL
from .oml import NO_ELEMENT, FiniteOml, SetOml, StructureError, relative_lattice


class SemigroupBudgetError(RuntimeError):
    """Enumeration hit the element budget; carries the partial state."""

    def __init__(self, budget: int, found: int, frontier: int):
        super().__init__(
            f"semigroup budget {budget} exceeded: {found} elements, frontier {frontier}"
        )
        self.budget = budget
        self.found = found
        self.frontier = frontier


@dataclass
class BaerSemigroup:
    """The semigroup generated by the Sasaki projections of a finite OML.

    Row i of table is the action of element i on the lattice, in discovery
    order, and index maps each row's bytes back to i.  Each element carries
    one generator word (sequence of lattice elements p standing for the
    Sasaki map of p).  star is the involution resolved from word reversal;
    perp maps each element to the Sasaki projection of the largest element
    it annihilates (so perp is idempotent-valued, not a permutation).
    """

    lattice: FiniteOml
    table: np.ndarray
    index: dict[bytes, int] = field(repr=False)
    words: list[tuple[int, ...]]
    star: np.ndarray
    perp: np.ndarray
    generator_of: dict[int, int]  # lattice element -> semigroup element index

    @property
    def size(self) -> int:
        return self.table.shape[0]

    @property
    def identity(self) -> int:
        return self.index[np.arange(self.lattice.n, dtype=self.table.dtype).tobytes()]

    def compose(self, i: int, j: int) -> int:
        """The element acting as (φ_i ∘ φ_j)(q) = φ_i(φ_j(q))."""
        return self.index[self.table[i][self.table[j]].tobytes()]

    def subset_of(self, i: int) -> int:
        """U_φ = φ(top), as a lattice element."""
        return int(self.table[i, self.lattice.top])


def enumerate_semigroup(lat: FiniteOml, cap: int = 10_000) -> BaerSemigroup:
    """Breadth-first closure of the Sasaki maps q ↦ p ∧ (p⊥ ∨ q) under
    composition, verified as a Baer*-semigroup.

    These maps, not the bare meets q ↦ p ∧ q, are the ones whose closed
    projections recover the lattice.  Deterministic discovery order:
    generators in lattice order, then products in (element, generator)
    order.  Raises SemigroupBudgetError instead of silently truncating, and
    StructureError where the semigroup axioms fail.
    """
    n = lat.n
    # the identity is phi_top, so it enters through the generators and keeps
    # a nonempty word (its perp is phi_bottom, not itself).  Actions are
    # stored in the smallest signed type that holds range(n), which keeps the
    # keys short and each level's products small.
    gens = lat.skew.astype(np.min_scalar_type(-n))
    width = n * gens.itemsize

    def keys(acts: np.ndarray) -> list[bytes]:
        """One dictionary key per row of acts."""
        raw = acts.tobytes()
        return [raw[k * width:(k + 1) * width] for k in range(acts.shape[0])]

    index: dict[bytes, int] = {}
    words: list[tuple[int, ...]] = []
    parent: list[int] = []  # element whose word this one extends, -1 for generators
    levels: list[np.ndarray] = []  # the new actions of each BFS level

    def add_level(cands: np.ndarray, word_of):
        """Append the rows of cands not seen yet, in row order."""
        fresh = []
        for k, key in enumerate(keys(cands)):
            if key not in index:
                index[key] = len(words)
                fresh.append(k)
                word, par = word_of(k)
                words.append(word)
                parent.append(par)
        levels.append(cands[fresh])

    add_level(gens, lambda p: ((p,), -1))
    gen_of = {p: index[key] for p, key in enumerate(keys(gens))}
    while levels[-1].size:
        frontier = levels[-1]
        if len(words) > cap:
            raise SemigroupBudgetError(cap, len(words), frontier.shape[0])
        # row f * n + p is phi_p ∘ (frontier element f)
        cands = gens[:, frontier].transpose(1, 0, 2).reshape(-1, n)
        base = len(words) - frontier.shape[0]
        add_level(cands, lambda k: ((k % n,) + words[base + k // n], base + k // n))
    if len(words) > cap:
        raise SemigroupBudgetError(cap, len(words), 0)
    table = np.concatenate(levels)
    size = table.shape[0]

    # star reverses the word: (phi_p ∘ psi)* = psi* ∘ phi_p, resolved level
    # by level so that psi* is known before it is used
    star = np.empty(size, dtype=int)
    letter = np.array([w[0] for w in words], dtype=np.intp)
    parents = np.array(parent, dtype=np.intp)
    lo = 0
    for level in levels:
        hi = lo + level.shape[0]
        acts = gens[letter[lo:hi]]
        if lo:
            acts = np.take_along_axis(table[star[parents[lo:hi]]], acts, axis=1)
        star[lo:hi] = [index[key] for key in keys(acts)]
        lo = hi

    # Perp via the right annihilator: phi-perp is the Sasaki map of the
    # largest element killed by phi.  The generator-substitution extension
    # ((phi psi)-perp := psi-perp phi-perp) is not well defined -- distinct
    # words for one map resolve to different elements already on Boolean
    # lattices -- so we use the intrinsic definition, which agrees with
    # phi_p -> phi_{p-perp} on the generators.  The join is folded over each
    # kernel in lattice order, for all elements at once; an empty kernel
    # leaves k = 0, which the open-kernel test below rejects.
    killed = table == lat.bottom
    least = killed.argmax(axis=1)
    k = least.copy()
    for q in range(n):
        step = killed[:, q] & (least < q)
        k[step] = lat.join[k[step], q]
    open_kernel = table[np.arange(size), k] != lat.bottom
    if open_kernel.any():
        i = int(np.argmax(open_kernel))
        raise StructureError(f"kernel of element {i} has no greatest element")
    perp = np.array([gen_of[p] for p in range(n)])[k]

    sg = BaerSemigroup(lat, table, index, words, star, perp, gen_of)
    _verify_semigroup(sg)
    return sg


def _verify_semigroup(sg: BaerSemigroup):
    lat, table = sg.lattice, sg.table
    below, above = np.nonzero(lat.leq)
    monotone = lat.leq[table[:, below], table[:, above]].all(axis=1)
    if not monotone.all():
        raise StructureError(f"element {int(np.argmin(monotone))} is not monotone")
    if not np.array_equal(sg.star[sg.star], np.arange(sg.size)):
        raise StructureError("star is not an involution")
    # φ[φ*(p⊥)⊥] ≤ p and φ*[φ(p⊥)⊥] ≤ p for all p, with φ* = star(φ)
    o, ps = lat.ortho, np.arange(lat.n)
    phi, phs = table, table[sg.star]
    lhs = np.take_along_axis(phi, o[phs[:, o]], axis=1)
    rhs = np.take_along_axis(phs, o[phi[:, o]], axis=1)
    law = (lat.leq[lhs, ps] & lat.leq[rhs, ps]).all(axis=1)
    if not law.all():
        raise StructureError(f"adjoint law fails for element {int(np.argmin(law))}")


def closed_projections(sg: BaerSemigroup):
    """Elements with φ² = φ = φ* and (φ⊥)⊥ = φ, as a recovered OML.

    Returns (recovered FiniteOml, element indices in discovery order,
    lattice->element map p ↦ φ_p).  Asserts the Foulis facts: the closed
    projections are exactly the Sasaki maps and p ↦ φ_p is an OML
    isomorphism.
    """
    table, ids = sg.table, np.arange(sg.size)
    idempotent = (np.take_along_axis(table, table, axis=1) == table).all(axis=1)
    closed = np.flatnonzero(
        idempotent & (sg.star == ids) & (sg.perp[sg.perp] == ids)).tolist()
    sasaki_set = sorted(set(sg.generator_of.values()))
    if closed != sasaki_set:
        raise StructureError(
            f"closed projections {closed} differ from Sasaki set {sasaki_set}"
        )
    local = np.full(sg.size, NO_ELEMENT)
    local[closed] = np.arange(len(closed))
    # φ_a ≤ φ_b iff φ_a ∘ φ_b = φ_a = φ_b ∘ φ_a; comp[a, b] = φ_a ∘ φ_b
    maps = table[closed]
    comp = maps[:, maps]
    leq = ((comp == maps[:, None, :]).all(axis=2)
           & (comp.transpose(1, 0, 2) == maps[:, None, :]).all(axis=2))
    recovered = FiniteOml(leq, local[sg.perp[closed]])
    iso = {p: int(local[sg.generator_of[p]]) for p in range(sg.lattice.n)}
    _check_isomorphism(sg.lattice, recovered, iso)
    return recovered, closed, iso


def _check_isomorphism(src: FiniteOml, dst: FiniteOml, iso: dict[int, int]):
    if src.n != dst.n or sorted(iso.values()) != list(range(dst.n)):
        raise StructureError("recovered lattice is not in bijection with the input")
    f = np.array([iso[p] for p in range(src.n)])
    moved = np.argwhere(src.leq != dst.leq[np.ix_(f, f)])
    if moved.size:
        p, q = moved[0].tolist()
        raise StructureError(f"order not preserved at ({p},{q})")
    moved = np.flatnonzero(f[src.ortho] != dst.ortho[f])
    if moved.size:
        raise StructureError(f"orthocomplement not preserved at {int(moved[0])}")


def star_antihom_defects(sg: BaerSemigroup) -> list[tuple[int, int]]:
    """Pairs violating (φψ)* = ψ*φ*; expected empty."""
    return [
        (i, j)
        for i, j in itertools.product(range(sg.size), repeat=2)
        if sg.star[sg.compose(i, j)] != sg.compose(int(sg.star[j]), int(sg.star[i]))
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
        if sg.perp[sg.compose(i, j)] != sg.compose(int(sg.perp[j]), int(sg.perp[i]))
    ]


def uphi_collisions(sg: BaerSemigroup) -> list[tuple[int, int]]:
    """Pairs of distinct elements with the same image subset U_φ.

    Nonempty on MO2 already, so the subset alone does not determine the
    semigroup element; products must be taken on elements, not subsets.
    """
    seen: dict[int, int] = {}
    bad = []
    for i in range(sg.size):
        u = sg.subset_of(i)
        if u in seen:
            bad.append((seen[u], i))
        else:
            seen[u] = i
    return bad


# ---------------------------------------------------------------------------
# the q-set product on subsets and characteristic functions


@dataclass(frozen=True)
class QSemigroupElement:
    """A semigroup element of a quantum set, tagged with its image subset."""

    qset_product: "QSetProduct"
    element: int

    @property
    def subset(self) -> frozenset[int]:
        return self.qset_product.subset_points(self.element)


class QSetProduct:
    """The product structure S(X) of a finite quantum set.

    Wraps the Baer*-semigroup of the member lattice; subsets are the point
    sets of the images U_φ = φ(X).
    """

    def __init__(self, qs: SetOml, cap: int = 10_000):
        self.qs = qs
        self.lattice = qs.to_finite_oml()
        self.semigroup = enumerate_semigroup(self.lattice, cap)
        # canonical representative element per subset: first by discovery
        self._rep: dict[frozenset[int], int] = {}
        for i in range(self.semigroup.size):
            u = self.subset_points(i)
            self._rep.setdefault(u, i)

    def subset_points(self, element: int) -> frozenset[int]:
        return self.qs.members[self.semigroup.subset_of(element)]

    def element_for_subset(self, points) -> QSemigroupElement:
        key = frozenset(points)
        try:
            return QSemigroupElement(self, self._rep[key])
        except KeyError:
            raise KeyError(f"{set(points)} is not in S(X)") from None

    def member_element(self, points) -> QSemigroupElement:
        """The closed projection (Sasaki map) of a lattice member."""
        m = self.qs.member_index(points)
        return QSemigroupElement(self, self.semigroup.generator_of[m])

    def top_element(self) -> QSemigroupElement:
        return QSemigroupElement(self, self.semigroup.identity)


def qset_star(u: QSemigroupElement, v: QSemigroupElement) -> QSemigroupElement:
    """U * V = U_{φψ}, computed on the underlying maps."""
    if u.qset_product is not v.qset_product:
        raise ValueError("elements belong to different semigroups")
    sp = u.qset_product
    return QSemigroupElement(sp, sp.semigroup.compose(u.element, v.element))


def qset_perp(u: QSemigroupElement) -> QSemigroupElement:
    sp = u.qset_product
    return QSemigroupElement(sp, int(sp.semigroup.perp[u.element]))


@dataclass
class ChiFunction:
    """Finite complex combination of characteristic functions of S(X) subsets.

    Canonical form: coefficient map keyed by subset, zero coefficients
    dropped.  Products pick the canonical representative element for each
    subset; whether that choice matters is a claim the harness tests, not
    an assumption.
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
            w = qset_star(eu, sp.element_for_subset(v)).subset
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
    worst = None
    for u, v in pairs:
        uy, vy = u & yset, v & yset
        lhs = qset_star(sub_sp.member_element(uy), sub_sp.member_element(vy)).subset
        rhs = qset_star(sp.member_element(u), sp.member_element(v)).subset & yset
        if lhs != rhs:
            worst = (u, v, lhs, rhs)
            return False, worst
    # Prop. 5 restriction identity for characteristic functions follows
    # pointwise from the subset identity; spot-check it anyway.
    for u, v in pairs:
        fx = chi_star(chi(sp, u), chi(sp, v))
        fy = chi_star(chi(sub_sp, u & yset), chi(sub_sp, v & yset))
        for x in sorted(yset):
            if abs(fx.evaluate(x) - fy.evaluate(x)) > VERDICT_TOL:
                return False, (u, v, x)
    return True, None
