import numpy as np
import pytest

import lattice_oracle as oracle
from findings import (
    ChiFunction,
    QSetProduct,
    chi,
    chi_star,
    compose,
    identity,
    perp_antihom_defects,
    saturation_check,
    star_antihom_defects,
    uphi_collisions,
)
from qgelfand.oml import StructureError, boolean_lattice, mo_lattice, verify_oml
from qgelfand.sasaki import SemigroupBudgetError, closed_projections, enumerate_semigroup
from test_lattice_oracle import BROKEN, CORPUS, _semigroup_fields, relabel


def test_sasaki_action_monotone(zoo):
    for name, lat in zoo.items():
        for p in range(lat.n):
            assert oracle.is_monotone(lat, lat.skew[p]), (name, p)


def test_boolean_semigroup_is_the_lattice(zoo):
    # in the Boolean case Sasaki maps compose as phi_p phi_q = phi_{p^q},
    # so the semigroup has exactly one element per lattice element
    for name in ("B1", "B2", "B3", "B4"):
        lat = zoo[name]
        sg = enumerate_semigroup(lat)
        assert sg.size == lat.n, name


def test_mo2_semigroup_size(zoo):
    sg = enumerate_semigroup(zoo["MO2"])
    assert sg.size == 18


def test_star_involution_and_antihomomorphism(zoo):
    for name in ("B3", "MO2", "hsum_B2_B3"):
        sg = enumerate_semigroup(zoo[name])
        for i in range(sg.size):
            assert sg.star[sg.star[i]] == i
        assert star_antihom_defects(sg) == [], name


def test_perp_antihomomorphism_fails_beyond_generators(zoo):
    # documented finding: the annihilator complement is not an
    # anti-homomorphism, already on Boolean lattices with the identity
    sg = enumerate_semigroup(zoo["B1"])
    assert perp_antihom_defects(sg) != []
    sg2 = enumerate_semigroup(zoo["MO2"])
    assert perp_antihom_defects(sg2) != []


def test_perp_restores_generators(zoo):
    lat = zoo["MO2"]
    sg = enumerate_semigroup(lat)
    for p in range(lat.n):
        assert sg.perp[sg.generator_of[p]] == sg.generator_of[lat.ortho[p]]


def test_uphi_injectivity_fails_on_mo2(zoo):
    # documented finding: distinct semigroup elements can share U_phi
    assert uphi_collisions(enumerate_semigroup(zoo["MO2"])) != []
    assert uphi_collisions(enumerate_semigroup(zoo["B3"])) == []


def test_closed_projections_recover_zoo(zoo):
    for name, lat in zoo.items():
        sg = enumerate_semigroup(lat)
        recovered, closed, iso = closed_projections(sg)
        assert recovered.n == lat.n, name
        assert verify_oml(recovered) == [], name


def test_budget_error():
    with pytest.raises(SemigroupBudgetError):
        enumerate_semigroup(mo_lattice(2), cap=5)


def test_literal_meet_mode_fails_adjoint_law(zoo):
    # the bare-meet maps violate the adjoint law on MO2; with verification
    # off they still enumerate
    with pytest.raises(StructureError):
        oracle.enumerate_semigroup(zoo["MO2"], sasaki=oracle.literal_meet_action)
    ref = oracle.enumerate_semigroup(zoo["MO2"], sasaki=oracle.literal_meet_action,
                                     verify=False)
    assert len(ref["actions"]) >= zoo["MO2"].n
    # on Boolean lattices the two action families coincide
    lat = boolean_lattice(2)
    for p in range(lat.n):
        assert oracle.sasaki_action(lat, p) == oracle.literal_meet_action(lat, p)
    meets = oracle.enumerate_semigroup(lat, sasaki=oracle.literal_meet_action)
    assert [tuple(row) for row in enumerate_semigroup(lat).table.tolist()] == meets["actions"]


# ---------------------------------------------------------------------------
# set-level product


@pytest.fixture()
def mo2_product(mo2_qset):
    return QSetProduct(mo2_qset)


def test_qset_product_noncommutative(mo2_product):
    sg = mo2_product.semigroup
    ua = mo2_product.member_element(frozenset({0}))
    ub = mo2_product.member_element(frozenset({2}))
    assert mo2_product.subset_points(compose(sg, ua, ub)) == frozenset({0})
    assert mo2_product.subset_points(compose(sg, ub, ua)) == frozenset({2})


def test_qset_star_top_identity(mo2_product):
    sg = mo2_product.semigroup
    ua = mo2_product.member_element(frozenset({0}))
    assert compose(sg, ua, identity(sg)) == ua


def test_qset_perp(mo2_product, mo2_qset):
    ua = mo2_product.member_element(frozenset({0}))
    perp = int(mo2_product.semigroup.perp[ua])
    assert mo2_product.subset_points(perp) == frozenset({1})


def test_chi_functions(mo2_product):
    f = chi(mo2_product, frozenset({0}))
    g = chi(mo2_product, frozenset({2}))
    prod = chi_star(f, g)
    # oracle: evaluate pointwise; the product is the characteristic
    # function of the one-sided Sasaki image {a1}
    assert prod.evaluate(0) == pytest.approx(1.0)
    assert prod.evaluate(2) == pytest.approx(0.0)
    assert f.sup_norm() == pytest.approx(1.0)
    h = ChiFunction(mo2_product, dict(f.canonical().coeffs))
    assert h.sup_norm() == f.sup_norm()


def test_saturation(mo2_qset):
    sp = QSetProduct(mo2_qset)
    full, _ = saturation_check(sp, frozenset({0, 1, 2, 3}))
    assert full is True
    partial, witness = saturation_check(sp, frozenset({0}))
    assert partial is False and witness is not None


@pytest.mark.parametrize("name", sorted(BROKEN))
def test_semigroup_rejects_every_broken_lattice(name):
    # chain3's middle element is its own complement, so φ₁(0) = 1 and the
    # kernel of φ₁ is empty: an empty kernel has no greatest element either
    with pytest.raises(StructureError) as exc:
        enumerate_semigroup(BROKEN[name])
    if name == "chain3":
        assert str(exc.value) == "kernel of element 1 has no greatest element"


@pytest.mark.parametrize("seed, name", enumerate(["MO8", "hsum_3B3", "B5"]))
def test_large_relabeled_lattices_match_oracle(seed, name):
    # the corpus lattices above the n ≤ 16 of the Hypothesis relabeling
    # test, each under one seeded renaming of its elements
    lat = CORPUS[name]
    lat = relabel(lat, np.random.default_rng(seed).permutation(lat.n))
    sg = enumerate_semigroup(lat)
    assert _semigroup_fields(sg) == oracle.enumerate_semigroup(lat)
    closed_projections(sg)
