import numpy as np
import pytest

from findings import powerset_quantum_set, relative_lattice
from qgelfand.oml import (
    NO_ELEMENT,
    FiniteOml,
    SetOml,
    StructureError,
    boolean_lattice,
    horizontal_sum,
    is_boolean,
    is_distributive,
    lattice_zoo,
    mo_lattice,
    verify_oml,
    verify_quantum_set,
)


def benzene_ring() -> FiniteOml:
    """O6: orthocomplemented but not orthomodular.

    0 < a < b < 1 and 0 < b' < a' < 1 with a-perp = a', b-perp = b'.
    """
    idx = {"0": 0, "a": 1, "b": 2, "b'": 3, "a'": 4, "1": 5}
    leq = np.zeros((6, 6), dtype=bool)
    for i in range(6):
        leq[0, i] = True
        leq[i, 5] = True
        leq[i, i] = True
    leq[idx["a"], idx["b"]] = True
    leq[idx["b'"], idx["a'"]] = True
    return FiniteOml(leq, [5, 4, 3, 2, 1, 0])


def test_zoo_all_pass():
    for name, lat in lattice_zoo().items():
        assert verify_oml(lat) == [], name


def test_benzene_fails_orthomodular():
    violations = verify_oml(benzene_ring())
    assert violations
    assert any(v.axiom == "orthomodular" for v in violations)


def test_boolean_lattice_sizes_and_booleanness():
    for k in (1, 2, 3):
        lat = boolean_lattice(k)
        assert lat.n == 2 ** k
        assert is_boolean(lat)[0]
        assert is_distributive(lat)


def test_boolean_matches_distributive_oracle():
    # for orthocomplemented lattices the skew-meet symmetry test must
    # agree with plain distributivity
    for name, lat in lattice_zoo().items():
        assert is_boolean(lat)[0] == is_distributive(lat), name


def test_mo2_boolean_witness():
    lat = mo_lattice(2)
    boolean, witness = is_boolean(lat)
    assert not boolean and witness is not None
    p, q = witness
    assert lat.skew[p, q] != lat.skew[q, p]


def test_mo1_is_boolean():
    assert is_boolean(mo_lattice(1))[0]


def test_horizontal_sum_is_oml():
    lat = horizontal_sum([boolean_lattice(2), mo_lattice(2)])
    assert verify_oml(lat) == []
    assert lat.n == 4 + 6 - 2
    assert not is_boolean(lat)[0]


def test_finite_oml_json_roundtrip():
    lat = mo_lattice(2)
    again = FiniteOml.from_json(lat.to_json())
    assert lat == again
    with pytest.raises(StructureError):
        FiniteOml.from_json({"n": 2})


@pytest.mark.parametrize("change", [
    {"ortho": [1.7, 0]},
    {"ortho": [1.0, 0]},
    {"ortho": [False, 0]},
    {"ortho": "10"},
    {"leq": [[1, 0], [2, 1]]},
    {"leq": [[1, 0], [1.0, 1]]},
    {"leq": [[1, 0], [None, 1]]},
    {"leq": [[1, 0], 1]},
    {"leq": "11"},
    {"n": 5},
    {"n": 2.0},
    {"n": "2"},
    {"labels": [1, 2]},
    {"labels": "01"},
    {"labels": None},
])
def test_finite_oml_json_is_strict(change):
    # a bool or int cast would read 2 as true and 1.7 as 1; n and labels,
    # when present, must agree with leq and be strings
    obj = {**boolean_lattice(1).to_json(), **change}
    with pytest.raises(StructureError):
        FiniteOml.from_json(obj)


def test_finite_oml_json_accepts_json_booleans():
    obj = {"leq": [[True, True], [False, True]], "ortho": [1, 0]}
    assert FiniteOml.from_json(obj) == boolean_lattice(1)


@pytest.mark.parametrize("change", [
    {"members": [[], [0.5], [1], [0, 1]]},
    {"members": [[], [True], [1], [0, 1]]},
    {"members": [[], 0, [1], [0, 1]]},
    {"ortho": [3.5, 2, 1, 0]},
    {"ground": "ab"},
    {"ground": [1, 2]},
])
def test_set_oml_json_is_strict(change):
    obj = {**powerset_quantum_set(["a", "b"]).to_json(), **change}
    with pytest.raises(StructureError):
        SetOml.from_json(obj)


def test_powerset_quantum_set():
    qs = powerset_quantum_set(["x", "y", "z"])
    assert verify_quantum_set(qs) == []
    # singleton joins in the classical case are unions
    assert qs.singleton_join(0, 1) == frozenset({0, 1})
    assert qs.point_closure(frozenset({0, 2})) == frozenset({0, 2})


def test_mo2_quantum_set_valid(mo2_qset):
    assert verify_quantum_set(mo2_qset) == []
    lat = mo2_qset.lattice
    assert verify_oml(lat) == []
    assert not is_boolean(lat)[0]


def test_mo2_quantum_set_joins(mo2_qset):
    # joining points from incompatible splittings fills the ground set
    assert mo2_qset.singleton_join(0, 2) == frozenset({0, 1, 2, 3})
    assert mo2_qset.point_closure(frozenset({0, 2})) == frozenset({0, 1, 2, 3})
    # a single point closes to itself
    assert mo2_qset.point_closure(frozenset({1})) == frozenset({1})


def _least_upper_bound(qs: SetOml, p: int, q: int) -> int:
    """The member containing p and q that every such member contains, or
    NO_ELEMENT, by a scan over the members."""
    upper = [r for r, m in enumerate(qs.members) if qs.members[p] | qs.members[q] <= m]
    least = [r for r in upper if all(qs.members[r] <= qs.members[s] for s in upper)]
    return least[0] if len(least) == 1 else NO_ELEMENT


def _no_join_qset() -> SetOml:
    # {0} and {1} lie below {0, 1, 2} and {0, 1, 3}, and nothing between
    members = [frozenset(), frozenset({0}), frozenset({1}), frozenset({0, 1, 2}),
               frozenset({0, 1, 3}), frozenset({0, 1, 2, 3})]
    return SetOml(["w", "x", "y", "z"], members, [5, 4, 3, 2, 1, 0])


@pytest.mark.parametrize("family", ["MO2", "powerset", "relative", "no join"])
def test_set_oml_join_is_the_least_upper_bound(mo2_qset, family):
    # singleton joins and quantum-set condition 5 read the lattice's join
    # table; a scan for the least upper bound is its oracle
    qs = {"MO2": lambda: mo2_qset,
          "powerset": lambda: powerset_quantum_set(["w", "x", "y", "z"]),
          "relative": lambda: relative_lattice(powerset_quantum_set(["x", "y", "z"]),
                                               frozenset({0, 1})),
          "no join": _no_join_qset}[family]()
    join = qs.lattice.join
    for p in range(qs.n):
        for q in range(qs.n):
            assert join[p, q] == _least_upper_bound(qs, p, q), (p, q)
    if family == "no join":
        assert join[1, 2] == NO_ELEMENT
        with pytest.raises(StructureError, match="singleton join of 0,1 undefined"):
            qs.singleton_join(0, 1)


def test_relative_lattice_singleton(mo2_qset):
    sub = relative_lattice(mo2_qset, frozenset({0}))
    lat = sub.lattice
    assert lat.n == 2
    assert verify_oml(lat) == []


def test_quantum_set_json_roundtrip(mo2_qset):
    again = SetOml.from_json(mo2_qset.to_json())
    assert verify_quantum_set(again) == []
    assert again.lattice == mo2_qset.lattice
