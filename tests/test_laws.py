"""Algebraic law suites over every enumerated lattice with at most six
elements.  Zero counterexamples are tolerated anywhere."""

import random

from primlat.core import classify

import helpers
from helpers import all_orthocomplements


def test_lattice_laws(small_lattices):
    for lat in small_lattices:
        assert helpers.lattice_laws(lat) is None


def test_reduced_axiomatizations_agree_with_classify(small_lattices):
    # the three-law version holds on every lattice; the two-identity
    # modular version holds exactly on the modular ones
    for lat in small_lattices:
        laws = helpers.lattice_laws(lat)
        assert laws is None
        assert helpers.modular_two_identity(lat) == classify(lat).is_modular


def test_monotony(small_lattices):
    for lat in small_lattices:
        assert helpers.monotony(lat) is None


def test_subset_bound_monotony(small_lattices):
    rng = random.Random(11)
    for lat in small_lattices:
        idx = list(range(lat.n))
        for _ in range(10):
            b = rng.sample(idx, rng.randint(1, lat.n))
            a = rng.sample(b, rng.randint(1, len(b)))
            assert lat.leq_i(lat.join_all_i(a), lat.join_all_i(b))
            assert lat.leq_i(lat.meet_all_i(b), lat.meet_all_i(a))


def test_minimax_inequality(small_lattices):
    rng = random.Random(23)
    for lat in small_lattices:
        idx = range(lat.n)
        grids = [
            ((a, b), (c, d))
            for a in idx for b in idx for c in idx for d in idx
        ]
        assert helpers.minimax(lat, 2, 2, grids) is None
        samples = [
            tuple(tuple(rng.randrange(lat.n) for _ in range(3)) for _ in range(2))
            for _ in range(50)
        ]
        assert helpers.minimax(lat, 2, 3, samples) is None


def test_distributive_and_modular_inequalities(small_lattices):
    for lat in small_lattices:
        assert helpers.distributive_inequalities(lat) is None
        assert helpers.modular_inequality(lat) is None


def test_distributivity_three_way_equivalence(small_lattices):
    for lat in small_lattices:
        disjunctive, conjunctive, median = helpers.distributivity_equivalents(lat)
        assert disjunctive == conjunctive == median == classify(lat).is_distributive


def test_distributive_implies_modular(small_lattices):
    for lat in small_lattices:
        rep = classify(lat)
        if rep.is_distributive:
            assert rep.is_modular


def test_finite_is_bounded_with_identities(small_lattices):
    for lat in small_lattices:
        rep = classify(lat)
        assert rep.is_bounded
        assert helpers.bound_identities(lat) is None


def test_cancellation_on_distributive(small_lattices):
    for lat in small_lattices:
        if classify(lat).is_distributive:
            assert helpers.distributive_cancellation(lat) is None


def test_distributive_complemented_implies_uniquely(small_lattices):
    seen_multiply = False
    for lat in small_lattices:
        rep = classify(lat)
        if rep.is_distributive and rep.is_complemented:
            assert rep.complementation_class == "uniquely"
        if rep.complementation_class == "multiply":
            seen_multiply = True  # complemented alone is not enough
    assert seen_multiply


def test_uniquely_complemented_with_huntington_side_conditions(small_lattices):
    # every enumerated lattice is atomic-or-not but certainly finite width,
    # so unique complementation must already force distributivity here
    for lat in small_lattices:
        rep = classify(lat)
        if rep.complementation_class == "uniquely":
            assert rep.is_distributive


def test_classic_ten_exactly_on_boolean(small_lattices):
    for lat in small_lattices:
        rep = classify(lat)
        any_selection = False
        for comp in helpers.complement_selections(lat):
            if helpers.classic_ten_hold(lat, comp):
                any_selection = True
                break
        assert any_selection == rep.is_boolean


def test_huntington_fourth_exactly_on_boolean(small_lattices):
    for lat in small_lattices:
        rep = classify(lat)
        any_selection = False
        for comp in helpers.complement_selections(lat):
            if helpers.huntington_fourth_holds(lat, comp):
                any_selection = True
                break
        assert any_selection == rep.is_boolean


def test_ortho_members_satisfy_derived_consequences(small_lattices):
    # attach_ortho checks the consequences of the ortho class (swapped
    # bounds, excluded middle, the De Morgan pair) and raises if one
    # fails; running it over every orthocomplement is the check
    from primlat.ortho import attach_ortho

    found = 0
    for lat in small_lattices:
        for mapping in all_orthocomplements(lat):
            attach_ortho(lat, mapping)
            found += 1
    assert found > 0


def test_commutes_symmetry_iff_orthomodular(small_lattices):
    for lat in small_lattices:
        for mapping in all_orthocomplements(lat):
            perm = tuple(lat.index(mapping[lab]) for lab in lat.labels)
            forms = helpers.orthomodular_forms(lat, perm)
            assert len(set(forms)) == 1, (lat.covers, mapping, forms)


def test_elkan_law_forces_boolean(small_lattices):
    hits = 0
    for lat in small_lattices:
        rep = classify(lat)
        for mapping in all_orthocomplements(lat):
            perm = tuple(lat.index(mapping[lab]) for lab in lat.labels)
            symmetric, *_ = helpers.orthomodular_forms(lat, perm)
            if symmetric and helpers.elkan_law(lat, perm):
                assert rep.is_boolean
                hits += 1
    assert hits > 0
