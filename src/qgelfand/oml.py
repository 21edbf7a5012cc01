"""Finite orthomodular lattices as explicit tables, set-based OMLs
(quantum sets), axiom verification, and the Boolean/commutativity
dichotomy."""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field

import numpy as np


class StructureError(ValueError):
    """Tables are malformed (sizes/indices), as opposed to axiom failure."""


@dataclass(frozen=True)
class Violation:
    axiom: str
    witnesses: tuple[int, ...]

    def __str__(self):
        return f"{self.axiom}{self.witnesses}"


NO_ELEMENT = -1


def _first(mask: np.ndarray) -> int:
    """Index of the first true entry, or NO_ELEMENT."""
    hits = np.flatnonzero(mask)
    return int(hits[0]) if hits.size else NO_ELEMENT


def _bool_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Boolean product: some k has a[..., i, k] and b[k, j].

    Counted in float32 through BLAS, exact for up to 2**24 terms and far
    faster than numpy's boolean matmul loop.
    """
    return (a.astype(np.float32) @ b.astype(np.float32)) > 0


def _unique_member(cands: np.ndarray) -> np.ndarray:
    """table[p, q] = the one r with cands[p, q, r], else NO_ELEMENT."""
    return np.where(cands.sum(axis=2) == 1, cands.argmax(axis=2), NO_ELEMENT)


class FiniteOml:
    """An orthocomplemented lattice given by an explicit order table.

    Construction only validates well-formedness; use verify_oml for the
    axioms, so that deliberately broken instances can still be built and
    inspected.
    """

    def __init__(self, leq, ortho, labels=None):
        leq = np.asarray(leq, dtype=bool)
        ortho = np.asarray(ortho, dtype=int)
        if leq.ndim != 2 or leq.shape[0] != leq.shape[1]:
            raise StructureError("leq must be a square truth table")
        n = leq.shape[0]
        if n == 0:
            raise StructureError("lattice must be nonempty")
        if ortho.shape != (n,):
            raise StructureError("ortho table size disagrees with leq")
        if np.any(ortho < 0) or np.any(ortho >= n):
            raise StructureError("ortho entries out of range")
        if labels is not None and len(labels) != n:
            raise StructureError("label count disagrees with leq")
        self.n = n
        self.leq = leq
        self.ortho = ortho
        self.labels = list(labels) if labels is not None else [str(i) for i in range(n)]
        self.bottom = _first(leq.all(axis=1))
        self.top = _first(leq.all(axis=0))

    @functools.cached_property
    def meet(self) -> np.ndarray:
        """meet[p, q] is the greatest element of the lower set of {p, q},
        or NO_ELEMENT where the candidate is not unique."""
        # lower[p, q, r]: r ≤ p and r ≤ q; a member is greatest iff no
        # member of the same set fails to lie below it
        leq = self.leq
        lower = leq.T[:, None, :] & leq.T[None, :, :]
        return _unique_member(lower & ~_bool_matmul(lower, ~leq))

    @functools.cached_property
    def join(self) -> np.ndarray:
        """join[p, q] is the least element of the upper set of {p, q}, or
        NO_ELEMENT where the candidate is not unique."""
        leq = self.leq
        upper = leq[:, None, :] & leq[None, :, :]
        return _unique_member(upper & ~_bool_matmul(upper, ~leq.T))

    @functools.cached_property
    def skew(self) -> np.ndarray:
        """skew[p, q] = p ∧ (p⊥ ∨ q), the Sasaki (skew) meet table."""
        return np.take_along_axis(self.meet, self.join[self.ortho], axis=1)

    def __eq__(self, other):
        if not isinstance(other, FiniteOml):
            return NotImplemented
        return (
            self.n == other.n
            and np.array_equal(self.leq, other.leq)
            and np.array_equal(self.ortho, other.ortho)
        )

    def __hash__(self):
        return hash((self.n, self.leq.tobytes(), self.ortho.tobytes()))

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "leq": self.leq.astype(int).tolist(),
            "ortho": self.ortho.tolist(),
            "labels": self.labels,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "FiniteOml":
        try:
            leq, ortho = obj["leq"], obj["ortho"]
        except KeyError as exc:
            raise StructureError(f"lattice JSON missing field {exc}") from exc
        # bool and numpy casts would silently coerce 2 to true and 1.7 to 1
        if not (isinstance(leq, list) and all(isinstance(row, list) for row in leq)
                and all(type(v) in (bool, int) and v in (0, 1) for row in leq for v in row)):
            raise StructureError("leq must be a list of rows of 0, 1, true or false")
        if not _is_int_list(ortho):
            raise StructureError("ortho must be a list of integers")
        if "n" in obj and not (type(obj["n"]) is int and obj["n"] == len(leq)):
            raise StructureError("n must be an integer equal to the number of leq rows")
        labels = obj.get("labels")
        if "labels" in obj and not (isinstance(labels, list)
                                    and all(isinstance(x, str) for x in labels)):
            raise StructureError("labels must be a list of strings")
        return cls(leq, ortho, labels)


def _is_int_list(v) -> bool:
    # JSON true/false decode to bool, a subclass of int
    return isinstance(v, list) and all(type(x) is int for x in v)


def verify_oml(lat: FiniteOml) -> list[Violation]:
    """Check the bounded-lattice and orthocomplementation axioms.

    Empty report means the instance is an orthomodular lattice.  Each
    violation names the failed axiom and the witnessing element(s), in the
    lexicographic order of the witnesses.
    """
    out: list[Violation] = []
    n, leq, ortho = lat.n, lat.leq, lat.ortho

    # partial order
    _extend(out, ~leq.diagonal(), "order.reflexive")
    _extend(out, leq & leq.T & ~np.eye(n, dtype=bool), "order.antisymmetric")
    # (p, q, r) with p ≤ q ≤ r but not p ≤ r, listed only if one exists
    if (_bool_matmul(leq, leq) & ~leq).any():
        for p in range(n):
            bad = leq[p][:, None] & leq & ~leq[p][None, :]
            out.extend(Violation("order.transitive", (p, q, r))
                       for q, r in np.argwhere(bad).tolist())
    if out:
        return out

    if lat.bottom == NO_ELEMENT:
        out.append(Violation("bounds.bottom", ()))
    if lat.top == NO_ELEMENT:
        out.append(Violation("bounds.top", ()))
    _extend(out, np.stack([lat.meet, lat.join], axis=-1) == NO_ELEMENT,
            "lattice.meet", "lattice.join")
    if out:
        return out

    elems = np.arange(n)
    _extend(out, ortho[ortho] != elems, "ortho.involution")
    # leq[ortho[q], ortho[p]] at [p, q]
    _extend(out, leq & ~leq[np.ix_(ortho, ortho)].T, "ortho.order_reversing")
    _extend(out, np.stack([lat.join[elems, ortho] != lat.top,
                           lat.meet[elems, ortho] != lat.bottom], axis=-1),
            "ortho.complement_join", "ortho.complement_meet")
    # join[p, meet[ortho[p], q]] at [p, q]
    p_and_back = np.take_along_axis(lat.join, lat.meet[ortho], axis=1)
    _extend(out, leq & (p_and_back != elems), "orthomodular")
    return out


def _extend(out: list[Violation], mask: np.ndarray, *axioms: str):
    """Append one violation per true entry of mask, in row-major order.

    With several axioms, the last axis of mask picks the axiom and the other
    axes are the witnesses.
    """
    if len(axioms) == 1:
        mask = mask[..., None]
    for *witnesses, k in np.argwhere(mask).tolist():
        out.append(Violation(axioms[k], tuple(witnesses)))


def is_boolean(lat: FiniteOml) -> tuple[bool, tuple[int, int] | None]:
    """True iff the skew meet is symmetric; otherwise the first bad pair."""
    s = lat.skew
    bad = np.argwhere(np.triu(s != s.T, 1))
    if bad.size:
        return False, (int(bad[0, 0]), int(bad[0, 1]))
    return True, None


def is_distributive(lat: FiniteOml) -> bool:
    """Exhaustive distributivity check, independent of the skew meet."""
    meet, join = lat.meet, lat.join
    for p in range(lat.n):
        # p ∧ (q ∨ r) against (p ∧ q) ∨ (p ∧ r), over all (q, r)
        if not np.array_equal(meet[p][join], join[np.ix_(meet[p], meet[p])]):
            return False
    return True


# ---------------------------------------------------------------------------
# lattice zoo


def boolean_lattice(k: int) -> FiniteOml:
    """Power-set lattice of a k-point set; elements are bitmasks."""
    n = 1 << k
    leq = np.array([[(p & ~q) == 0 for q in range(n)] for p in range(n)])
    ortho = np.array([(n - 1) ^ p for p in range(n)])
    labels = [format(p, f"0{max(k, 1)}b") for p in range(n)]
    return FiniteOml(leq, ortho, labels)


def mo_lattice(k: int) -> FiniteOml:
    """MO_k: bottom, top, and k orthocomplementary pairs of atoms."""
    n = 2 * k + 2
    top = n - 1
    leq = np.zeros((n, n), dtype=bool)
    for p in range(n):
        leq[p, p] = True
        leq[0, p] = True
        leq[p, top] = True
    ortho = np.zeros(n, dtype=int)
    ortho[0], ortho[top] = top, 0
    labels = ["0"] + [None] * (n - 2) + ["1"]
    for i in range(k):
        a, ac = 1 + 2 * i, 2 + 2 * i
        ortho[a], ortho[ac] = ac, a
        labels[a], labels[ac] = f"a{i}", f"a{i}'"
    return FiniteOml(leq, ortho, labels)


def horizontal_sum(parts: list[FiniteOml]) -> FiniteOml:
    """Glue OMLs by identifying their bottoms and tops (0-1 pasting)."""
    if not parts:
        raise StructureError("need at least one summand")
    interiors = []
    for lat in parts:
        if lat.bottom == NO_ELEMENT or lat.top == NO_ELEMENT:
            raise StructureError("summands must be bounded")
        interiors.append([p for p in range(lat.n) if p not in (lat.bottom, lat.top)])
    n = 2 + sum(len(ix) for ix in interiors)
    top = n - 1
    offsets = []
    acc = 1
    for ix in interiors:
        offsets.append(acc)
        acc += len(ix)

    def glob(i_part, p):
        lat = parts[i_part]
        if p == lat.bottom:
            return 0
        if p == lat.top:
            return top
        return offsets[i_part] + interiors[i_part].index(p)

    leq = np.zeros((n, n), dtype=bool)
    ortho = np.zeros(n, dtype=int)
    labels = [""] * n
    for p in range(n):
        leq[p, p] = True
        leq[0, p] = True
        leq[p, top] = True
    ortho[0], ortho[top] = top, 0
    labels[0], labels[top] = "0", "1"
    for i, lat in enumerate(parts):
        for p in interiors[i]:
            gp = glob(i, p)
            labels[gp] = f"{i}.{lat.labels[p]}"
            ortho[gp] = glob(i, lat.ortho[p])
            for q in interiors[i]:
                if lat.leq[p, q]:
                    leq[gp, glob(i, q)] = True
    return FiniteOml(leq, ortho, labels)


def lattice_zoo() -> dict[str, FiniteOml]:
    """The canonical finite test corpus."""
    zoo = {
        "B1": boolean_lattice(1),
        "B2": boolean_lattice(2),
        "B3": boolean_lattice(3),
        "B4": boolean_lattice(4),
        "MO1": mo_lattice(1),
        "MO2": mo_lattice(2),
        "MO3": mo_lattice(3),
        "chain2": boolean_lattice(1),  # the only chain that is an OML
        "hsum_B2_B3": horizontal_sum([boolean_lattice(2), boolean_lattice(3)]),
        "hsum_MO2_B2": horizontal_sum([mo_lattice(2), boolean_lattice(2)]),
    }
    return zoo


# ---------------------------------------------------------------------------
# set-based OMLs (quantum sets)


@dataclass
class SetOml:
    """A finite family of subsets of a ground set, ordered by inclusion.

    Members are frozensets of ground-point indices.  Singleton joins are
    the least upper bounds in the member poset: the join table of its
    lattice.
    """

    ground: list[str]
    members: list[frozenset[int]]
    ortho: list[int]
    _index: dict[frozenset, int] = field(default=None, repr=False)

    def __post_init__(self):
        if not self.ground:
            raise StructureError("ground set must be nonempty")
        if len(set(self.members)) != len(self.members):
            raise StructureError("duplicate members")
        npts = len(self.ground)
        for m in self.members:
            if any(x < 0 or x >= npts for x in m):
                raise StructureError("member contains out-of-range point")
        if len(self.ortho) != len(self.members):
            raise StructureError("ortho table size disagrees with members")
        if any(o < 0 or o >= len(self.members) for o in self.ortho):
            raise StructureError("ortho entries out of range")
        self._index = {m: i for i, m in enumerate(self.members)}

    @property
    def n(self) -> int:
        return len(self.members)

    def member_index(self, s) -> int:
        try:
            return self._index[frozenset(s)]
        except KeyError:
            raise KeyError(f"{set(s)} is not a member") from None

    def singleton_join(self, x: int, y: int) -> frozenset[int]:
        """Join of the singletons {x}, {y}, as a point set."""
        p = self.member_index({x})
        q = self.member_index({y})
        r = self.lattice.join[p, q]
        if r == NO_ELEMENT:
            raise StructureError(f"singleton join of {x},{y} undefined")
        return self.members[r]

    def point_closure(self, points: frozenset[int]) -> frozenset[int]:
        """Least fixed point of pairwise singleton joins over a point set."""
        cur = frozenset(points)
        while True:
            nxt = set(cur)
            for x, y in itertools.combinations(sorted(cur), 2):
                nxt |= self.singleton_join(x, y)
            nxt = frozenset(nxt)
            if nxt == cur:
                return cur
            cur = nxt

    @functools.cached_property
    def lattice(self) -> FiniteOml:
        """The members ordered by inclusion, as a FiniteOml built once."""
        order = np.array(
            [[self.members[p] <= self.members[q] for q in range(self.n)] for p in range(self.n)]
        )
        labels = ["{" + ",".join(self.ground[i] for i in sorted(m)) + "}" for m in self.members]
        return FiniteOml(order, np.asarray(self.ortho), labels)

    def to_json(self) -> dict:
        return {
            "ground": self.ground,
            "members": [sorted(m) for m in self.members],
            "ortho": list(self.ortho),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "SetOml":
        try:
            ground, members, ortho = obj["ground"], obj["members"], obj["ortho"]
        except KeyError as exc:
            raise StructureError(f"SetOml JSON missing field {exc}") from exc
        if not (isinstance(ground, list) and all(isinstance(x, str) for x in ground)):
            raise StructureError("ground must be a list of point names")
        if not (isinstance(members, list) and all(_is_int_list(m) for m in members)):
            raise StructureError("members must be lists of integer point indices")
        if not _is_int_list(ortho):
            raise StructureError("ortho must be a list of integers")
        return cls(ground, [frozenset(m) for m in members], ortho)


def verify_quantum_set(qs: SetOml) -> list[Violation]:
    """Check the quantum-set conditions plus the OML axioms of the member family."""
    out: list[Violation] = []
    npts = len(qs.ground)
    full = frozenset(range(npts))
    if frozenset() not in qs._index or full not in qs._index:
        out.append(Violation("qset.1_bounds", ()))
    for x in range(npts):
        if frozenset({x}) not in qs._index:
            out.append(Violation("qset.2_singletons", (x,)))
    if out:
        return out
    # 3 (order = inclusion) holds by representation; 4: meets are intersections
    for p, q in itertools.combinations(range(qs.n), 2):
        inter = qs.members[p] & qs.members[q]
        if inter not in qs._index:
            out.append(Violation("qset.4_meet_intersection", (p, q)))
    if out:
        return out
    # 5: pairwise joins agree with the singleton-join point closure
    join = qs.lattice.join
    for p, q in itertools.combinations(range(qs.n), 2):
        r = join[p, q]
        if r == NO_ELEMENT:
            out.append(Violation("qset.5_join_exists", (p, q)))
            continue
        closure = qs.point_closure(qs.members[p] | qs.members[q])
        if closure != qs.members[r]:
            out.append(Violation("qset.5_join_formula", (p, q)))
    # 6: members are closed under joins of their singletons
    for u in range(qs.n):
        if qs.point_closure(qs.members[u]) != qs.members[u]:
            out.append(Violation("qset.6_join_closed", (u,)))
    out.extend(verify_oml(qs.lattice))
    return out
