"""Pure-Python reference versions of the table-driven lattice and semigroup
code in ``qgelfand.oml`` and ``qgelfand.sasaki``.

These are the loop formulations the array code replaced.  The oracle tests
require the array code to return exactly what these return (``==``), on
lattices that are orthomodular and on lattices that are not.  The semigroup
enumeration also takes other generator families than the Sasaki maps, such
as the bare meets q ↦ p ∧ q, for comparison.
"""

from __future__ import annotations

import itertools

import numpy as np

from qgelfand.oml import NO_ELEMENT, FiniteOml, StructureError, Violation
from qgelfand.sasaki import SemigroupBudgetError


def find_bounds(lat: FiniteOml) -> tuple[int, int]:
    """(bottom, top): the first element below (above) every element."""

    def first(below) -> int:
        for p in range(lat.n):
            if all(below(p, q) for q in range(lat.n)):
                return p
        return NO_ELEMENT

    return first(lambda p, q: lat.leq[p, q]), first(lambda p, q: lat.leq[q, p])


def bound_tables(lat: FiniteOml) -> tuple[np.ndarray, np.ndarray]:
    n, leq = lat.n, lat.leq
    meet = np.full((n, n), NO_ELEMENT, dtype=int)
    join = np.full((n, n), NO_ELEMENT, dtype=int)
    for p in range(n):
        for q in range(n):
            lower = [r for r in range(n) if leq[r, p] and leq[r, q]]
            greatest = [r for r in lower if all(leq[s, r] for s in lower)]
            if len(greatest) == 1:
                meet[p, q] = greatest[0]
            upper = [r for r in range(n) if leq[p, r] and leq[q, r]]
            least = [r for r in upper if all(leq[r, s] for s in upper)]
            if len(least) == 1:
                join[p, q] = least[0]
    return meet, join


def verify_oml(lat: FiniteOml) -> list[Violation]:
    out: list[Violation] = []
    n, leq, ortho = lat.n, lat.leq, lat.ortho

    for p in range(n):
        if not leq[p, p]:
            out.append(Violation("order.reflexive", (p,)))
    for p, q in itertools.permutations(range(n), 2):
        if leq[p, q] and leq[q, p]:
            out.append(Violation("order.antisymmetric", (p, q)))
    for p, q, r in itertools.product(range(n), repeat=3):
        if leq[p, q] and leq[q, r] and not leq[p, r]:
            out.append(Violation("order.transitive", (p, q, r)))
    if out:
        return out

    if lat.bottom == NO_ELEMENT:
        out.append(Violation("bounds.bottom", ()))
    if lat.top == NO_ELEMENT:
        out.append(Violation("bounds.top", ()))
    for p, q in itertools.product(range(n), repeat=2):
        if lat.meet[p, q] == NO_ELEMENT:
            out.append(Violation("lattice.meet", (p, q)))
        if lat.join[p, q] == NO_ELEMENT:
            out.append(Violation("lattice.join", (p, q)))
    if out:
        return out

    for p in range(n):
        if ortho[ortho[p]] != p:
            out.append(Violation("ortho.involution", (p,)))
    for p, q in itertools.product(range(n), repeat=2):
        if leq[p, q] and not leq[ortho[q], ortho[p]]:
            out.append(Violation("ortho.order_reversing", (p, q)))
    for p in range(n):
        if lat.join[p, ortho[p]] != lat.top:
            out.append(Violation("ortho.complement_join", (p,)))
        if lat.meet[p, ortho[p]] != lat.bottom:
            out.append(Violation("ortho.complement_meet", (p,)))
    for p, q in itertools.product(range(n), repeat=2):
        if leq[p, q] and lat.join[p, lat.meet[ortho[p], q]] != q:
            out.append(Violation("orthomodular", (p, q)))
    return out


def skew_meet(lat: FiniteOml, p: int, q: int) -> int:
    return int(lat.meet[p, lat.join[lat.ortho[p], q]])


def is_boolean(lat: FiniteOml) -> tuple[bool, tuple[int, int] | None]:
    for p, q in itertools.combinations(range(lat.n), 2):
        if skew_meet(lat, p, q) != skew_meet(lat, q, p):
            return False, (p, q)
    return True, None


def is_distributive(lat: FiniteOml) -> bool:
    for p, q, r in itertools.product(range(lat.n), repeat=3):
        lhs = lat.meet[p, lat.join[q, r]]
        rhs = lat.join[lat.meet[p, q], lat.meet[p, r]]
        if lhs != rhs:
            return False
    return True


def sasaki_action(lat: FiniteOml, p: int) -> tuple[int, ...]:
    """The Sasaki projection q ↦ p ∧ (p⊥ ∨ q) as a tuple."""
    return tuple(skew_meet(lat, p, q) for q in range(lat.n))


def literal_meet_action(lat: FiniteOml, p: int) -> tuple[int, ...]:
    """The bare-meet map q ↦ p ∧ q as a tuple."""
    return tuple(int(lat.meet[p, q]) for q in range(lat.n))


def is_monotone(lat: FiniteOml, action) -> bool:
    return all(lat.leq[action[p], action[q]] for p in range(lat.n)
               for q in range(lat.n) if lat.leq[p, q])


def compose(first, second):
    """(first ∘ second)(q) = first(second(q))."""
    return tuple(first[x] for x in second)


def enumerate_semigroup(lat: FiniteOml, cap: int = 10_000, sasaki=sasaki_action,
                        verify: bool = True) -> dict:
    """Breadth-first closure of the maps sasaki(lat, p), one tuple at a time.

    Returns the fields the array code must reproduce: actions, words,
    star, perp and generator_of.  Raises SemigroupBudgetError with the
    same found/frontier counts, and StructureError on the same elements.
    """
    gens: list[tuple[int, ...]] = []
    gen_of: dict[int, int] = {}
    index: dict[tuple[int, ...], int] = {}
    actions: list[tuple[int, ...]] = []
    words: list[tuple[int, ...]] = []

    def add(action, word):
        if action in index:
            return None
        index[action] = len(actions)
        actions.append(action)
        words.append(word)
        return index[action]

    identity = tuple(range(lat.n))
    for p in range(lat.n):
        a = tuple(int(x) for x in sasaki(lat, p))
        gens.append(a)
        add(a, (p,))
        gen_of[p] = index[a]

    frontier = list(range(len(actions)))
    while frontier:
        if len(actions) > cap:
            raise SemigroupBudgetError(cap, len(actions), len(frontier))
        fresh = []
        for i in frontier:
            for p in range(lat.n):
                new = add(compose(gens[p], actions[i]), (p,) + words[i])
                if new is not None:
                    fresh.append(new)
        frontier = fresh
    if len(actions) > cap:
        raise SemigroupBudgetError(cap, len(actions), 0)

    def resolve(word_actions) -> int:
        acc = identity
        for a in word_actions:
            acc = compose(acc, a)
        return index[acc]

    star = [resolve([gens[p] for p in reversed(w)]) for w in words]

    perp = []
    for i, a in enumerate(actions):
        kernel = [q for q in range(lat.n) if a[q] == lat.bottom]
        k = kernel[0]
        for q in kernel[1:]:
            k = int(lat.join[k, q])
        if a[k] != lat.bottom:
            if verify:
                raise StructureError(f"kernel of element {i} has no greatest element")
            perp.append(NO_ELEMENT)
            continue
        perp.append(gen_of[k])

    if verify:
        for i, a in enumerate(actions):
            if not is_monotone(lat, a):
                raise StructureError(f"element {i} is not monotone")
        if [star[s] for s in star] != list(range(len(actions))):
            raise StructureError("star is not an involution")
        o = lat.ortho
        for i, phi in enumerate(actions):
            phs = actions[star[i]]
            for p in range(lat.n):
                if (not lat.leq[phi[o[phs[o[p]]]], p]
                        or not lat.leq[phs[o[phi[o[p]]]], p]):
                    raise StructureError(f"adjoint law fails for element {i}")
    return {"actions": actions, "words": words, "star": star, "perp": perp,
            "generator_of": gen_of}
