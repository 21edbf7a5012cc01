"""Sasaki projections, the generated Baer*-semigroup, and recovery of the
lattice from its closed projections."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .oml import NO_ELEMENT, FiniteOml, StructureError


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
