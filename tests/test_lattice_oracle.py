"""The table-driven lattice checks and the array semigroup enumeration
against the pure-Python loops in lattice_oracle, compared with ==."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lattice_oracle as oracle
from findings import compose, identity, subset_of
from qgelfand.oml import (
    FiniteOml,
    StructureError,
    boolean_lattice,
    horizontal_sum,
    is_boolean,
    is_distributive,
    lattice_zoo,
    mo_lattice,
    verify_oml,
)
from qgelfand.sasaki import SemigroupBudgetError, closed_projections, enumerate_semigroup
from test_oml import benzene_ring


def _corpus() -> dict[str, FiniteOml]:
    """The zoo, MO4..MO8, B5 and horizontal sums of two and three B3s."""
    lats = dict(lattice_zoo())
    lats.update({f"MO{k}": mo_lattice(k) for k in range(4, 9)})
    lats["B5"] = boolean_lattice(5)
    lats["hsum_2B3"] = horizontal_sum([boolean_lattice(3)] * 2)
    lats["hsum_3B3"] = horizontal_sum([boolean_lattice(3)] * 3)
    return lats


def _broken() -> dict[str, FiniteOml]:
    """Lattices that fail verify_oml at each of its stages."""
    bowtie = np.eye(6, dtype=bool)  # 0 < a, b < c, d < 1: no a ∨ b, no c ∧ d
    bowtie[0, :] = bowtie[:, 5] = True
    bowtie[1:3, 3:5] = True
    return {
        "benzene": benzene_ring(),
        "antichain": FiniteOml([[1, 0], [0, 1]], [1, 0]),
        "chain3": FiniteOml([[1, 1, 1], [0, 1, 1], [0, 0, 1]], [2, 1, 0]),
        # 0 ≤ 1 ≤ 2 without 0 ≤ 2
        "nontransitive": FiniteOml([[1, 1, 0], [0, 1, 1], [0, 0, 1]], [2, 1, 0]),
        "cycle": FiniteOml([[1, 1], [1, 1]], [1, 0]),
        "irreflexive": FiniteOml([[0, 1], [0, 1]], [1, 0]),
        "bowtie": FiniteOml(bowtie, [5, 4, 3, 2, 1, 0]),
        "not_involutive": FiniteOml(mo_lattice(2).leq, [5, 2, 3, 4, 1, 0]),
        # an involution of B2 that fixes 0 and 1: 0 ≤ 1 but not 1⊥ ≤ 0⊥
        "not_order_reversing": FiniteOml(boolean_lattice(2).leq, [0, 2, 1, 3]),
        # a, b < 1 and no a ∧ b; 0 < a, b and no a ∨ b
        "no_bottom": FiniteOml([[1, 0, 1], [0, 1, 1], [0, 0, 1]], [1, 0, 2]),
        "no_top": FiniteOml([[1, 1, 1], [0, 1, 0], [0, 0, 1]], [0, 2, 1]),
        # in B2, p⊥ = 1: p ∨ p⊥ = 1 but a ∧ a⊥ = a; 0⊥ = a and p⊥ = 0
        # otherwise: p ∧ p⊥ = 0 but 0 ∨ 0⊥ = a
        "ortho_to_top": FiniteOml(boolean_lattice(2).leq, [3, 3, 3, 3]),
        "ortho_to_bottom": FiniteOml(boolean_lattice(2).leq, [1, 0, 0, 0]),
    }


CORPUS = _corpus()
BROKEN = _broken()


def relabel(lat: FiniteOml, perm) -> FiniteOml:
    """The same lattice with element perm[i] renamed to i."""
    perm = np.asarray(perm)
    new_of = np.argsort(perm)
    return FiniteOml(lat.leq[np.ix_(perm, perm)], new_of[lat.ortho[perm]])


def _semigroup_fields(sg) -> dict:
    return {"actions": [tuple(row) for row in sg.table.tolist()], "words": sg.words,
            "star": sg.star.tolist(), "perp": sg.perp.tolist(),
            "generator_of": sg.generator_of}


def _assert_tables_match(lat: FiniteOml):
    meet, join = oracle.bound_tables(lat)
    assert np.array_equal(lat.meet, meet)
    assert np.array_equal(lat.join, join)
    assert (lat.bottom, lat.top) == oracle.find_bounds(lat)
    assert verify_oml(lat) == oracle.verify_oml(lat)
    assert is_boolean(lat) == oracle.is_boolean(lat)
    assert is_distributive(lat) == oracle.is_distributive(lat)


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_lattice_checks_match_oracle(name):
    lat = CORPUS[name]
    _assert_tables_match(lat)
    assert verify_oml(lat) == []


@pytest.mark.parametrize("name", sorted(BROKEN))
def test_broken_lattice_checks_match_oracle(name):
    # the full violation list, in order, and the tables it was read from
    lat = BROKEN[name]
    _assert_tables_match(lat)
    assert verify_oml(lat) != []


def test_broken_lattices_fire_every_axiom():
    # so that each check of verify_oml, and the skip of its witness list
    # when the check is clean, meets the oracle on both sides; the checks
    # that share one mask each fire without the other too
    fired = [{v.axiom for v in oracle.verify_oml(lat)} for lat in BROKEN.values()]
    assert set().union(*fired) == {
        "order.reflexive", "order.antisymmetric", "order.transitive",
        "bounds.bottom", "bounds.top", "lattice.meet", "lattice.join",
        "ortho.involution", "ortho.order_reversing", "ortho.complement_join",
        "ortho.complement_meet", "orthomodular"}
    for pair in [("lattice.meet", "lattice.join"),
                 ("ortho.complement_join", "ortho.complement_meet")]:
        for one, other in itertools.permutations(pair):
            assert any(one in axioms and other not in axioms for axioms in fired), one


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_semigroup_matches_oracle(name):
    lat = CORPUS[name]
    sg = enumerate_semigroup(lat)
    assert _semigroup_fields(sg) == oracle.enumerate_semigroup(lat)
    recovered, closed, iso = closed_projections(sg)
    assert closed == sorted(set(sg.generator_of.values()))
    assert recovered == relabel(lat, np.argsort([iso[p] for p in range(lat.n)]))


@settings(max_examples=60)
@given(data=st.data())
def test_relabeled_lattices_match_oracle(data):
    small = {k: v for k, v in {**CORPUS, **BROKEN}.items() if v.n <= 16}
    name = data.draw(st.sampled_from(sorted(small)))
    lat = small[name]
    lat = relabel(lat, data.draw(st.permutations(range(lat.n))))
    _assert_tables_match(lat)
    if name in BROKEN:
        return
    sg = enumerate_semigroup(lat)
    assert _semigroup_fields(sg) == oracle.enumerate_semigroup(lat)
    closed_projections(sg)


@pytest.mark.parametrize("name", sorted(
    name for name, lat in CORPUS.items() if enumerate_semigroup(lat).size <= 200))
def test_table_composition_matches_oracle(name):
    # compose looks the composed row up in the bytes index; the tuple
    # composition says which row that must be, for every ordered pair
    lat = CORPUS[name]
    sg = enumerate_semigroup(lat)
    rows = [tuple(row) for row in sg.table.tolist()]
    for i, j in itertools.product(range(sg.size), repeat=2):
        assert rows[compose(sg, i, j)] == oracle.compose(rows[i], rows[j]), (i, j)
    assert rows[identity(sg)] == tuple(range(lat.n))
    for i in range(sg.size):
        assert subset_of(sg, i) == rows[i][lat.top]


@pytest.mark.parametrize("name", ["benzene", "not_involutive"])
def test_semigroup_errors_match_oracle(name):
    # orthocomplemented lattices that are not orthomodular: the Sasaki maps
    # enumerate, and both codes reject the same element for the same reason
    lat = BROKEN[name]
    with pytest.raises(StructureError) as ref_exc:
        oracle.enumerate_semigroup(lat)
    with pytest.raises(StructureError) as exc:
        enumerate_semigroup(lat)
    assert str(exc.value) == str(ref_exc.value)


@pytest.mark.parametrize("name", ["MO2", "MO3", "hsum_B2_B3"])
def test_budget_error_matches_oracle(name):
    lat = CORPUS[name]
    for cap in range(0, 80):
        try:
            oracle.enumerate_semigroup(lat, cap=cap)
        except SemigroupBudgetError as exc:
            ref = (exc.budget, exc.found, exc.frontier)
        else:
            ref = None
        try:
            enumerate_semigroup(lat, cap=cap)
        except SemigroupBudgetError as exc:
            got = (exc.budget, exc.found, exc.frontier)
        else:
            got = None
        assert got == ref, cap
